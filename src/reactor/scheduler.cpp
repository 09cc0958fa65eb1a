#include "reactor/scheduler.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"
#include "reactor/action.hpp"
#include "reactor/port.hpp"
#include "reactor/sim_driver.hpp"

namespace dear::reactor {

namespace {

/// Releases a held mutex for its scope and takes it back on exit, also
/// when a reaction throws (the caller's lock still owns it then).
class Unlocked {
 public:
  explicit Unlocked(common::OwnerMutex& mutex) : mutex_(mutex) { mutex_.unlock(); }
  ~Unlocked() { mutex_.lock(); }

  Unlocked(const Unlocked&) = delete;
  Unlocked& operator=(const Unlocked&) = delete;

 private:
  common::OwnerMutex& mutex_;
};

}  // namespace

Scheduler::Scheduler(PhysicalClock& clock) : clock_(clock) {}

Scheduler::~Scheduler() {
  // Lifetime totals flush into the metrics registry once, so the tag loop
  // keeps its plain member counters.
  obs::count(obs::Counter::kSchedTagsProcessed, tags_processed_);
  obs::count(obs::Counter::kSchedReactionsExecuted, reactions_executed_);
  obs::count(obs::Counter::kSchedDeadlineViolations, deadline_violations_);
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
}

void Scheduler::attach(SimDriver& driver) {
  claim_single_owner();
  driver_ = &driver;
}

void Scheduler::enqueue_locked(BaseAction* action, const Tag& tag) {
  assert(state_ != State::kFinished);
  if (event_queue_.insert(action, tag)) {
    wake_pending_ = true;
  }
}

void Scheduler::enqueue_batch_locked(BaseAction* const* actions, std::size_t count,
                                     const Tag& tag) {
  assert(state_ != State::kFinished);
  const bool was_earliest = event_queue_.empty() || tag < event_queue_.earliest();
  event_queue_.insert_batch(actions, count, tag);
  if (was_earliest && count > 0) {
    wake_pending_ = true;
  }
}

void Scheduler::notify() {
  if (!single_owner()) {
    cv_.notify_all();
    return;
  }
  // Nobody waits on cv_, and nobody else can set the flag in between.
  if (wake_pending_) {
    wake_pending_ = false;
    if (driver_ != nullptr) {
      driver_->arm();
    }
  }
}

void Scheduler::request_stop() {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    if (state_ == State::kFinished) {
      return;
    }
    stop_requested_ = true;
    lower_stop_tag_locked(current_tag_.delay(0));
    wake_pending_ = true;
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
  current_tag_ = start_tag;
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
  return state_ == State::kRunning ? next_tag_locked() : Tag::maximum();
}

Tag Scheduler::next_tag_locked() const {
  const Tag earliest = event_queue_.earliest();
  return stop_tag_ < earliest ? stop_tag_ : earliest;
}

void Scheduler::lower_stop_tag_locked(const Tag& tag) noexcept {
  if (tag < stop_tag_) {
    stop_tag_ = tag;
  }
}

void Scheduler::run_tag(const Tag& tag) {
  assert(tag >= current_tag_);
  const bool is_stop = tag == stop_tag_;
  current_tag_ = tag;
  ++tags_processed_;
  busy_offset_ = 0;
  if (obs::Registry::metrics_enabled()) {
    obs::gauge_max(obs::Gauge::kSchedQueueDepthPeak, event_queue_.pending_events());
  }
  if (event_queue_.pop_at(tag, popped_actions_)) {
    for (BaseAction* action : popped_actions_) {
      activate_locked(*action, tag);
    }
  }
  if (is_stop) {
    for (BaseAction* action : shutdown_actions_) {
      activate_locked(*action, tag);
    }
  }
  {
    const Unlocked unlocked(mutex_);
    execute_staged();
    finalize_tag();
  }
  if (is_stop) {
    state_ = State::kFinished;
  } else if (stop_requested_) {
    // A reaction at this tag called request_shutdown(); honor it at the
    // next microstep.
    lower_stop_tag_locked(current_tag_.delay(0));
  }
}

void Scheduler::activate_locked(BaseAction& action, const Tag& tag) {
  action.setup(tag);  // Timer::setup re-arms via enqueue_locked
  active_actions_.push_back(&action);
  for (Reaction* reaction : action.triggered_reactions()) {
    stage(*reaction);
  }
}

void Scheduler::stage(Reaction& reaction) {
  if (reaction.staged_for_ == current_tag_) {
    return;  // already staged at this tag
  }
  reaction.staged_for_ = current_tag_;
  assert(reaction.level() >= 0);
  assert(static_cast<std::size_t>(reaction.level()) < staged_.size());
  staged_[static_cast<std::size_t>(reaction.level())].push_back(&reaction);
}

void Scheduler::stage_port_triggers(BasePort& port) {
  assert(port.triggered_closure().empty() ||
         port.triggered_closure().front()->level() > current_level_);
  for (Reaction* reaction : port.triggered_closure()) {
    stage(*reaction);
  }
}

void Scheduler::register_set_port(BasePort& port) { set_ports_.push_back(&port); }

void Scheduler::execute_reaction(Reaction& reaction) {
  // busy_offset_ models execution time already consumed at this tag (DES
  // driver only; zero in threaded mode).
  const TimePoint physical_now = clock_.now() + busy_offset_;
  const bool violated =
      reaction.has_deadline() && physical_now > current_tag_.time + reaction.deadline();
  if (violated) {
    ++deadline_violations_;
  }
  if (trace_.enabled()) {
    trace_.record(current_tag_, reaction.fqn(), violated);
  }
  {
    const obs::SpanScope span(obs::SpanCategory::kReaction, reaction.fqn(), current_tag_.time,
                              current_tag_.microstep,
                              static_cast<std::int32_t>(reaction.level()));
    reaction.execute(current_tag_, physical_now);
  }
  ++reactions_executed_;
  if (driver_ != nullptr && reaction.has_modeled_cost()) {
    busy_offset_ += reaction.modeled_cost().sample(driver_->cost_rng_);
  }
}

void Scheduler::execute_staged() {
  // Opt-in firehose category: masked off by default, one branch here.
  const obs::SpanScope tag_span(obs::SpanCategory::kTag, "tag", current_tag_.time,
                                current_tag_.microstep);
  for (std::size_t level = 0; level < staged_.size(); ++level) {
    std::vector<Reaction*>& batch = staged_[level];
    if (batch.empty()) {
      continue;
    }
    current_level_ = static_cast<int>(level);
    if (obs::Registry::metrics_enabled()) {
      const auto width = static_cast<std::uint64_t>(batch.size());
      obs::count(obs::Counter::kSchedLevelsRun);
      obs::observe(obs::Hist::kSchedLevelWidth, static_cast<double>(width));
      obs::gauge_max(obs::Gauge::kSchedLevelWidthPeak, width);
    }
    // A reaction stages only higher levels (asserted in
    // stage_port_triggers), so the batch does not grow while it runs.
    for (Reaction* reaction : batch) {
      execute_reaction(*reaction);
    }
    batch.clear();
  }
  current_level_ = -1;
}

void Scheduler::finalize_tag() {
  for (BasePort* port : set_ports_) {
    port->cleanup();
  }
  set_ports_.clear();
  for (BaseAction* action : active_actions_) {
    action->cleanup();
  }
  active_actions_.clear();
}

std::optional<Tag> Scheduler::process_next_tag(TimePoint horizon) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  if (state_ != State::kRunning) {
    return std::nullopt;
  }
  const Tag next = next_tag_locked();
  if (next == Tag::maximum() || next.time > horizon) {
    return std::nullopt;
  }
  run_tag(next);
  return next;
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
    const Tag next = next_tag_locked();
    if (next == Tag::maximum()) {
      if (keepalive_) {
        cv_.wait(lock);
      } else {
        // Nothing left to do: shut down at the next microstep.
        lower_stop_tag_locked(current_tag_.delay(0));
      }
    } else if (clock_.now() < next.time) {
      // Never handle an event before physical time exceeds its tag. Wake
      // early if an earlier event or a stop arrives.
      cv_.wait_until(lock, real_clock->to_chrono(next.time));
    } else {
      run_tag(next);
    }
  }
}

}  // namespace dear::reactor
