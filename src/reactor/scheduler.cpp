#include "reactor/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"
#include "reactor/action.hpp"
#include "reactor/environment.hpp"
#include "reactor/port.hpp"

namespace dear::reactor {

namespace {

inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins before a worker parks resp. the orchestrator starts yielding:
/// long enough to bridge the gap between consecutive levels of a busy
/// stream, short enough not to burn a timeslice on a small host.
constexpr int kSpinsBeforePark = 2048;
/// Parked workers re-probe for work on this period instead of relying on
/// a publisher wakeup — publishing a level is then syscall-free, and an
/// orchestrator on a 1-core host never pays futex wakes for workers that
/// cannot help anyway.
constexpr std::chrono::milliseconds kParkPoll{1};
/// Level width from which publishing additionally notifies parked workers:
/// for wide batches the wakeup latency is worth the syscall.
constexpr std::uint32_t kParkedNotifyFloor = 32;

}  // namespace

thread_local Scheduler::WorkerSlot* Scheduler::active_slot_ = nullptr;
thread_local std::uint32_t Scheduler::active_batch_index_ = 0;

Scheduler::Scheduler(Environment& environment, PhysicalClock& clock)
    : environment_(environment), clock_(clock),
      worker_slots_(std::make_unique<WorkerSlot[]>(1)) {}

Scheduler::~Scheduler() {
  pool_shutdown_.store(true, std::memory_order_seq_cst);
  { const std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_all();
  for (auto& thread : worker_threads_) {
    thread.join();
  }
  // Lifetime totals flush into the metrics registry after the workers have
  // joined (their slot counters are stable), so the tag loop keeps its
  // plain member counters.
  obs::count(obs::Counter::kSchedTagsProcessed, tags_processed_);
  obs::count(obs::Counter::kSchedReactionsExecuted, reactions_executed());
  obs::count(obs::Counter::kSchedDeadlineViolations,
             deadline_violations_.load(std::memory_order_relaxed));
}

void Scheduler::configure(int level_count, unsigned workers, bool keepalive, Duration timeout) {
  staged_.resize(static_cast<std::size_t>(level_count));
  workers_ = workers == 0 ? 1 : workers;
  keepalive_ = keepalive;
  timeout_ = timeout;
  // Slot 0 is the orchestrating thread; 1..workers-1 the pool workers.
  worker_slot_count_ = workers_;
  worker_slots_ = std::make_unique<WorkerSlot[]>(worker_slot_count_);
}

void Scheduler::claim_single_owner() {
  if (state_ != State::kIdle) {
    throw std::logic_error("claim_single_owner on a started scheduler");
  }
  mutex_.claim_single_owner();
  staging_mutex_.claim_single_owner();
}

void Scheduler::enqueue_locked(BaseAction* action, const Tag& tag) {
  assert(state_ != State::kFinished);
  if (event_queue_.insert(action, tag)) {
    wake_pending_.store(true, std::memory_order_release);
  }
}

void Scheduler::enqueue_batch_locked(BaseAction* const* actions, std::size_t count,
                                     const Tag& tag) {
  assert(state_ != State::kFinished);
  const bool was_earliest = event_queue_.empty() || tag < event_queue_.earliest();
  event_queue_.insert_batch(actions, count, tag);
  if (was_earliest && count > 0) {
    wake_pending_.store(true, std::memory_order_release);
  }
}

void Scheduler::set_current_tag_locked(const Tag& tag) noexcept {
  current_tag_ = tag;
  if (single_owner()) {
    return;  // current_tag() reads current_tag_ directly
  }
  // Seqlock write: odd sequence marks the snapshot in flux, the release
  // fence orders the field stores before the closing (even) increment.
  tag_seq_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  published_tag_time_.store(tag.time, std::memory_order_relaxed);
  published_tag_microstep_.store(tag.microstep, std::memory_order_relaxed);
  tag_seq_.fetch_add(1, std::memory_order_release);
}

void Scheduler::notify() {
  if (single_owner()) {
    // Nobody waits on cv_, and nobody else can set the flag in between.
    if (wake_pending_.load(std::memory_order_relaxed)) {
      wake_pending_.store(false, std::memory_order_relaxed);
      if (wake_callback_) {
        wake_callback_();
      }
    }
    return;
  }
  cv_.notify_all();
  bool expected = true;
  if (wake_pending_.compare_exchange_strong(expected, false) && wake_callback_) {
    wake_callback_();
  }
}

void Scheduler::request_stop() {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    if (state_ == State::kFinished) {
      return;
    }
    stop_requested_ = true;
    const Tag earliest_stop = current_tag_.delay(0);
    if (earliest_stop < stop_tag_) {
      stop_tag_ = earliest_stop;
    }
    wake_pending_.store(true, std::memory_order_release);
  }
  notify();
}

void Scheduler::start_at(const Tag& start_tag) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  if (state_ != State::kIdle) {
    throw std::logic_error("scheduler already started");
  }
  state_ = State::kRunning;
  start_tag_ = start_tag;
  set_current_tag_locked(start_tag);
  if (timeout_ >= 0) {
    stop_tag_ = Tag{start_tag.time + timeout_, 0};
  }
  enqueue_batch_locked(startup_actions_.data(), startup_actions_.size(), start_tag);
  for (Timer* timer : timers_) {
    timer->arm(start_tag);
  }
}

Tag Scheduler::next_tag() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  if (state_ != State::kRunning) {
    return Tag::maximum();
  }
  Tag next = event_queue_.earliest();
  if (stop_tag_ < next) {
    next = stop_tag_;
  }
  return next;
}

void Scheduler::prepare_tag_locked(const Tag& tag, bool is_stop) {
  assert(tag >= current_tag_);
  set_current_tag_locked(tag);
  ++tags_processed_;
  busy_offset_ = 0;
  if (obs::Registry::metrics_enabled()) {
    obs::gauge_max(obs::Gauge::kSchedQueueDepthPeak, event_queue_.pending_events());
  }

  const std::lock_guard<common::OwnerMutex> staging_lock(staging_mutex_);
  if (event_queue_.pop_at(tag, popped_actions_)) {
    for (BaseAction* action : popped_actions_) {
      action->setup(tag);  // Timer::setup re-arms via enqueue_locked
      active_actions_.push_back(action);
      for (Reaction* reaction : action->triggered_reactions()) {
        stage_locked(*reaction);
      }
    }
  }
  if (is_stop) {
    for (BaseAction* action : shutdown_actions_) {
      action->setup(tag);
      active_actions_.push_back(action);
      for (Reaction* reaction : action->triggered_reactions()) {
        stage_locked(*reaction);
      }
    }
  }
}

void Scheduler::stage_locked(Reaction& reaction) {
  if (reaction.staged_for_ == current_tag_) {
    return;  // already staged at this tag
  }
  reaction.staged_for_ = current_tag_;
  assert(reaction.level() >= 0);
  assert(static_cast<std::size_t>(reaction.level()) < staged_.size());
  staged_[static_cast<std::size_t>(reaction.level())].push_back(&reaction);
}

void Scheduler::stage_port_triggers(BasePort& port) {
  if (WorkerSlot* slot = active_slot_) {
    // Parallel level in flight on this thread: record privately, merge in
    // deterministic batch-index order at the level barrier.
    slot->records.push_back(StagedRecord{active_batch_index_, false, &port});
    return;
  }
  const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
  assert(port.triggered_closure().empty() ||
         port.triggered_closure().front()->level() > current_level_);
  for (Reaction* reaction : port.triggered_closure()) {
    stage_locked(*reaction);
  }
}

void Scheduler::register_set_port(BasePort& port) {
  if (WorkerSlot* slot = active_slot_) {
    slot->records.push_back(StagedRecord{active_batch_index_, true, &port});
    return;
  }
  const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
  set_ports_.push_back(&port);
}

void Scheduler::execute_reaction(Reaction& reaction) {
  // busy_offset_ models execution time already consumed at this tag (DES
  // driver only; zero in threaded mode).
  const TimePoint physical_now = clock_.now() + busy_offset_;
  const bool violated =
      reaction.has_deadline() && physical_now > current_tag_.time + reaction.deadline();
  if (violated) {
    deadline_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (trace_.enabled()) {
    const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
    trace_.record(current_tag_, reaction.fqn(), violated);
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kReaction, reaction.fqn(), current_tag_.time,
                              current_tag_.microstep,
                              static_cast<std::int32_t>(reaction.level()));
    reaction.execute(current_tag_, physical_now);
  }
  worker_slots_[0].count_reaction();  // slot 0 belongs to the orchestrating thread
  if (exec_cost_hook_) {
    busy_offset_ += exec_cost_hook_(reaction);
  }
}

void Scheduler::execute_reaction_parallel(Reaction& reaction, WorkerSlot& slot,
                                          std::uint32_t batch_index) {
  // current_tag_ is stable for the whole level (the publish of the level
  // cursor ordered the tag write before any claim).
  active_batch_index_ = batch_index;
  const TimePoint physical_now = clock_.now();
  const bool violated =
      reaction.has_deadline() && physical_now > current_tag_.time + reaction.deadline();
  if (violated) {
    deadline_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (trace_.enabled()) {
    slot.trace.push_back(LocalTraceRecord{batch_index, violated});
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kReaction, reaction.fqn(), current_tag_.time,
                              current_tag_.microstep,
                              static_cast<std::int32_t>(reaction.level()));
    reaction.execute(current_tag_, physical_now);
  }
  slot.count_reaction();
}

void Scheduler::execute_staged() {
  // Opt-in firehose category: masked off by default, one branch here.
  const obs::SpanScope tag_span(obs::SpanCategory::kTag, "tag", current_tag_.time,
                                current_tag_.microstep);
  for (std::size_t level = 0; level < staged_.size(); ++level) {
    // Swap with the reused batch buffer: the two vectors' capacities
    // rotate, so no level allocates in steady state.
    level_batch_buffer_.clear();
    {
      const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
      current_level_ = static_cast<int>(level);
      level_batch_buffer_.swap(staged_[level]);
    }
    if (level_batch_buffer_.empty()) {
      continue;
    }
    if (obs::Registry::metrics_enabled()) {
      const auto width = static_cast<std::uint64_t>(level_batch_buffer_.size());
      obs::count(obs::Counter::kSchedLevelsRun);
      obs::observe(obs::Hist::kSchedLevelWidth, static_cast<double>(width));
      obs::gauge_max(obs::Gauge::kSchedLevelWidthPeak, width);
    }
    // Serial fast path: single worker, single reaction, or modeled
    // execution cost (sequential by definition — the DES driver).
    if (workers_ <= 1 || level_batch_buffer_.size() == 1 || exec_cost_hook_ ||
        level_batch_buffer_.size() > kMaxLevelWidth) {
      for (Reaction* reaction : level_batch_buffer_) {
        execute_reaction(*reaction);
      }
    } else {
      obs::count(obs::Counter::kSchedLevelsParallel);
      const obs::SpanScope span(obs::SpanCategory::kLevel, "level", current_tag_.time,
                                current_tag_.microstep, static_cast<std::int32_t>(level),
                                level_batch_buffer_.size());
      run_level_parallel(level_batch_buffer_);
    }
    executed_buffer_.insert(executed_buffer_.end(), level_batch_buffer_.begin(),
                            level_batch_buffer_.end());
  }
  {
    const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
    current_level_ = -1;
  }
}

void Scheduler::run_level_parallel(const std::vector<Reaction*>& level_reactions) {
  const auto size = static_cast<std::uint32_t>(level_reactions.size());
  // Chunked claims amortize the cursor CAS; / 4 keeps the tail balanced
  // when reaction costs are skewed.
  const std::uint32_t chunk =
      std::max<std::uint32_t>(1, size / (static_cast<std::uint32_t>(workers_) * 4));
  level_completed_.store(0, std::memory_order_relaxed);
  level_batch_.store(level_reactions.data(), std::memory_order_relaxed);
  level_size_.store(size, std::memory_order_relaxed);
  level_chunk_.store(chunk, std::memory_order_relaxed);
  // Truncate to the cursor's 40 generation bits on the publish side too,
  // so the orchestrator's equality checks in work_on_level keep matching
  // after the counter wraps.
  const std::uint64_t generation = ++level_generation_ & kGenMask;
  // seq_cst publish: orders the store against the parked_workers_ read
  // below, closing the park/publish race without a lock.
  level_cursor_.store(generation << kGenShift, std::memory_order_seq_cst);
  if (size >= kParkedNotifyFloor && parked_workers_.load(std::memory_order_seq_cst) > 0) {
    { const std::lock_guard<std::mutex> lock(park_mutex_); }
    park_cv_.notify_all();
  }

  // The orchestrating thread claims chunks too.
  work_on_level(generation, worker_slots_[0]);

  // Completion barrier: wait for every *claimed* reaction, never for idle
  // workers — a parked worker that claimed nothing costs nothing here.
  int spins = 0;
  while (level_completed_.load(std::memory_order_acquire) != size) {
    if (++spins >= kSpinsBeforePark) {
      std::this_thread::yield();  // claimant likely descheduled (small host)
      spins = 0;
    } else {
      cpu_pause();
    }
  }
  merge_level_effects(level_reactions);
}

void Scheduler::work_on_level(std::uint64_t generation, WorkerSlot& slot) {
  WorkerSlot* const previous_slot = active_slot_;
  active_slot_ = &slot;
  for (;;) {
    std::uint64_t cursor = level_cursor_.load(std::memory_order_acquire);
    if ((cursor >> kGenShift) != generation) {
      break;  // level finished and superseded while we were away
    }
    const std::uint32_t size = level_size_.load(std::memory_order_relaxed);
    const std::uint32_t chunk = level_chunk_.load(std::memory_order_relaxed);
    const auto index = static_cast<std::uint32_t>(cursor & kIndexMask);
    if (index >= size) {
      break;  // every reaction claimed
    }
    const std::uint32_t next = std::min(index + chunk, size);
    if (!level_cursor_.compare_exchange_weak(cursor, (generation << kGenShift) | next,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      continue;  // lost the race (or the level changed) — re-evaluate
    }
    // The successful CAS proves the level was current and incomplete, so
    // the published batch pointer cannot have been republished since.
    Reaction* const* batch = level_batch_.load(std::memory_order_relaxed);
    const bool timed = obs::Registry::metrics_enabled();
    const std::int64_t claim_start = timed ? obs::steady_now_ns() : 0;
    for (std::uint32_t i = index; i < next; ++i) {
      execute_reaction_parallel(*batch[i], slot, i);
    }
    if (timed) {
      obs::count(obs::Counter::kSchedChunkClaims);
      obs::count(obs::Counter::kSchedWorkerBusyNs,
                 static_cast<std::uint64_t>(obs::steady_now_ns() - claim_start));
    }
    level_completed_.fetch_add(next - index, std::memory_order_acq_rel);
  }
  active_slot_ = previous_slot;
}

void Scheduler::worker_loop(std::size_t worker_index) {
  WorkerSlot& slot = worker_slots_[worker_index];
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::uint64_t cursor = level_cursor_.load(std::memory_order_acquire);
    if (pool_shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    if ((cursor >> kGenShift) == seen_generation) {
      // Spin briefly (bridges the inter-level gap of a busy stream), then
      // park with a timed re-probe.
      const bool timed = obs::Registry::metrics_enabled();
      const std::int64_t idle_start = timed ? obs::steady_now_ns() : 0;
      int spins = 0;
      for (;;) {
        cpu_pause();
        cursor = level_cursor_.load(std::memory_order_acquire);
        if (pool_shutdown_.load(std::memory_order_acquire)) {
          return;
        }
        if ((cursor >> kGenShift) != seen_generation) {
          break;
        }
        if (++spins >= kSpinsBeforePark) {
          obs::count(obs::Counter::kSchedWorkerParks);
          std::unique_lock<std::mutex> lock(park_mutex_);
          parked_workers_.fetch_add(1, std::memory_order_seq_cst);
          park_cv_.wait_for(lock, kParkPoll, [&] {
            return pool_shutdown_.load(std::memory_order_acquire) ||
                   (level_cursor_.load(std::memory_order_acquire) >> kGenShift) !=
                       seen_generation;
          });
          parked_workers_.fetch_sub(1, std::memory_order_relaxed);
          spins = 0;
        }
      }
      if (timed) {
        obs::count(obs::Counter::kSchedWorkerIdleNs,
                   static_cast<std::uint64_t>(obs::steady_now_ns() - idle_start));
      }
    }
    seen_generation = cursor >> kGenShift;
    work_on_level(seen_generation, slot);
  }
}

void Scheduler::merge_level_effects(const std::vector<Reaction*>& level_reactions) {
  const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
  // K-way merge of the per-worker effect buffers in batch-index order:
  // each worker's buffer is already sorted (claims are monotonic), and an
  // index executes on exactly one worker, so the merged stream replays the
  // exact staging/cleanup sequence of a serial execution.
  for (std::size_t w = 0; w < worker_slot_count_; ++w) {
    worker_slots_[w].merge_cursor = 0;
  }
  for (;;) {
    WorkerSlot* best = nullptr;
    for (std::size_t w = 0; w < worker_slot_count_; ++w) {
      WorkerSlot& slot = worker_slots_[w];
      if (slot.merge_cursor >= slot.records.size()) {
        continue;
      }
      if (best == nullptr || slot.records[slot.merge_cursor].batch_index <
                                 best->records[best->merge_cursor].batch_index) {
        best = &slot;
      }
    }
    if (best == nullptr) {
      break;
    }
    const StagedRecord& record = best->records[best->merge_cursor++];
    if (record.set_port) {
      set_ports_.push_back(record.port);
    } else {
      assert(record.port->triggered_closure().empty() ||
             record.port->triggered_closure().front()->level() > current_level_);
      for (Reaction* reaction : record.port->triggered_closure()) {
        stage_locked(*reaction);
      }
    }
  }
  for (std::size_t w = 0; w < worker_slot_count_; ++w) {
    worker_slots_[w].records.clear();
  }
  if (trace_.enabled()) {
    for (std::size_t w = 0; w < worker_slot_count_; ++w) {
      worker_slots_[w].merge_cursor = 0;
    }
    for (;;) {
      WorkerSlot* best = nullptr;
      for (std::size_t w = 0; w < worker_slot_count_; ++w) {
        WorkerSlot& slot = worker_slots_[w];
        if (slot.merge_cursor >= slot.trace.size()) {
          continue;
        }
        if (best == nullptr || slot.trace[slot.merge_cursor].batch_index <
                                   best->trace[best->merge_cursor].batch_index) {
          best = &slot;
        }
      }
      if (best == nullptr) {
        break;
      }
      const LocalTraceRecord& record = best->trace[best->merge_cursor++];
      trace_.record(current_tag_, level_reactions[record.batch_index]->fqn(), record.violated);
    }
    for (std::size_t w = 0; w < worker_slot_count_; ++w) {
      worker_slots_[w].trace.clear();
    }
  }
}

void Scheduler::finalize_tag_locked() {
  const std::lock_guard<common::OwnerMutex> staging_lock(staging_mutex_);
  for (BasePort* port : set_ports_) {
    port->cleanup();
  }
  set_ports_.clear();
  for (BaseAction* action : active_actions_) {
    action->cleanup();
  }
  active_actions_.clear();
}

std::optional<Scheduler::TagResult> Scheduler::process_next_tag(TimePoint horizon) {
  std::unique_lock<common::OwnerMutex> lock(mutex_);
  if (state_ != State::kRunning) {
    return std::nullopt;
  }
  Tag next = event_queue_.earliest();
  if (stop_tag_ < next) {
    next = stop_tag_;
  }
  if (next == Tag::maximum() || next.time > horizon) {
    return std::nullopt;
  }
  const bool is_stop = next == stop_tag_;
  prepare_tag_locked(next, is_stop);
  lock.unlock();

  executed_buffer_.clear();
  execute_staged();
  TagResult result;
  result.tag = next;
  result.executed = std::span<Reaction* const>(executed_buffer_);

  lock.lock();
  finalize_tag_locked();
  if (is_stop) {
    state_ = State::kFinished;
  } else if (stop_requested_) {
    // A reaction at this tag called request_shutdown(); honor it at the
    // next microstep.
    const Tag earliest_stop = current_tag_.delay(0);
    if (earliest_stop < stop_tag_) {
      stop_tag_ = earliest_stop;
    }
  }
  return result;
}

void Scheduler::run_threaded() {
  if (single_owner()) {
    throw std::logic_error("run_threaded on a single-owner scheduler (driven by SimDriver)");
  }
  auto* real_clock = dynamic_cast<RealClock*>(&clock_);
  if (real_clock == nullptr) {
    throw std::logic_error(
        "run_threaded requires a RealClock; use SimDriver for simulated execution");
  }
  // Spawn the worker pool (the orchestrating thread is worker 0).
  for (unsigned i = 1; i < workers_; ++i) {
    worker_threads_.emplace_back([this, i] { worker_loop(i); });
  }

  start_at(Tag{clock_.now(), 0});

  std::unique_lock<std::mutex> lock(mutex_.native());
  while (state_ == State::kRunning) {
    Tag next = event_queue_.earliest();
    if (stop_tag_ < next) {
      next = stop_tag_;
    }
    if (next == Tag::maximum()) {
      if (keepalive_) {
        cv_.wait(lock);
        continue;
      }
      // Nothing left to do: shut down at the next microstep.
      const Tag earliest_stop = current_tag_.delay(0);
      if (earliest_stop < stop_tag_) {
        stop_tag_ = earliest_stop;
      }
      continue;
    }
    // Never handle an event before physical time exceeds its tag.
    if (clock_.now() < next.time) {
      cv_.wait_until(lock, real_clock->to_chrono(next.time));
      continue;  // re-evaluate: an earlier event or stop may have arrived
    }
    const bool is_stop = next == stop_tag_;
    prepare_tag_locked(next, is_stop);
    lock.unlock();
    executed_buffer_.clear();
    execute_staged();
    lock.lock();
    finalize_tag_locked();
    if (is_stop) {
      state_ = State::kFinished;
    } else if (stop_requested_) {
      const Tag earliest_stop = current_tag_.delay(0);
      if (earliest_stop < stop_tag_) {
        stop_tag_ = earliest_stop;
      }
    }
  }
}

}  // namespace dear::reactor
