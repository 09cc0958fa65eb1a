#include "reactor/scheduler.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"
#include "reactor/action.hpp"
#include "reactor/port.hpp"

namespace dear::reactor {

Scheduler::Scheduler(PhysicalClock& clock) : clock_(clock) {}

Scheduler::~Scheduler() {
  // Lifetime totals flush into the metrics registry once, so the tag loop
  // keeps its plain member counters.
  obs::count(obs::Counter::kSchedTagsProcessed, tags_processed_);
  obs::count(obs::Counter::kSchedReactionsExecuted, reactions_executed_);
  obs::count(obs::Counter::kSchedDeadlineViolations,
             deadline_violations_.load(std::memory_order_relaxed));
}

void Scheduler::configure(int level_count, bool keepalive, Duration timeout) {
  staged_.resize(static_cast<std::size_t>(level_count));
  keepalive_ = keepalive;
  timeout_ = timeout;
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
  const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
  assert(port.triggered_closure().empty() ||
         port.triggered_closure().front()->level() > current_level_);
  for (Reaction* reaction : port.triggered_closure()) {
    stage_locked(*reaction);
  }
}

void Scheduler::register_set_port(BasePort& port) {
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
  ++reactions_executed_;
  if (exec_cost_hook_) {
    busy_offset_ += exec_cost_hook_(reaction);
  }
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
    for (Reaction* reaction : level_batch_buffer_) {
      execute_reaction(*reaction);
    }
    executed_buffer_.insert(executed_buffer_.end(), level_batch_buffer_.begin(),
                            level_batch_buffer_.end());
  }
  {
    const std::lock_guard<common::OwnerMutex> lock(staging_mutex_);
    current_level_ = -1;
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
