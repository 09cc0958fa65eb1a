// Event scheduler.
//
// One scheduler core serves two execution drivers:
//   * the threaded driver (run_threaded): a blocking loop that waits on a
//     real clock until physical time reaches the next tag, then runs it;
//   * the DES driver (SimDriver in sim_driver.hpp): calls process_next_tag
//     from kernel callbacks, with physical time = simulation time.
// Both run a tag the same way (run_tag): pop its events, run the staged
// reactions, clean up, honour a pending stop.
//
// Either way, a tag's reactions run on the one thread that drives the
// scheduler: level by level, and within a level in staging order. The
// paper (§III.A) lets a runtime map the independent reactions of a level
// to separate worker threads. This runtime does not, because no graph it
// runs has a level worth spreading: the schedule plans printed by
// `dear_lint --workload dear --workload acc --timing` hold at most 2
// reactions per level on a brake node and 4 on an ACC node. Beside at most
// one app-logic reaction, every reaction of such a level is transactor
// glue of about 100 ns, less than one hand-off to another thread costs.
// Serial levels also make the execution trace a plain recording order,
// identical under both drivers (tests/reactor/driver_conformance_test.cpp).
//
// Events are never handled before physical time exceeds their tag, which
// is what makes externally tagged events (PTIDES safe-to-process) safe.
//
// Thread safety. The driving thread owns the tag loop's state: staging,
// set ports, the trace and the counters are touched by no other thread,
// so they take no lock. Other threads reach the scheduler only through
// mutex_: action inserts (with_lock + notify) and request_stop. The
// driving thread holds mutex_ while it pops a tag's events and advances
// current_tag_, and drops it while reactions run. Under the DES driver one
// kernel thread does everything, so SimDriver attaches itself as the
// single owner before it starts: mutex_ becomes a no-op and notify()
// re-arms the driver instead of signalling the condition variable. A
// claimed scheduler must never be touched from a second thread; debug
// builds assert on overlapping acquisitions, and run_threaded() refuses a
// claimed scheduler.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "common/owner_mutex.hpp"
#include "reactor/event_queue.hpp"
#include "reactor/physical_clock.hpp"
#include "reactor/reaction.hpp"
#include "reactor/tag.hpp"
#include "reactor/trace.hpp"

namespace dear::reactor {

class BasePort;
class BaseAction;
class SimDriver;
class Timer;

class Scheduler {
 public:
  explicit Scheduler(PhysicalClock& clock);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- configuration (before start) -------------------------------------------

  void configure(int level_count, bool keepalive, Duration timeout);

  /// Declares that one thread will drive this scheduler for its whole life:
  /// drops the locking of mutex_. Throws std::logic_error once started.
  void claim_single_owner();
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

  /// Hands the scheduler to a DES driver (SimDriver::start, before
  /// start_at): claims it single-owner, re-arms the driver's kernel wake-up
  /// whenever the earliest pending tag becomes earlier, and charges each
  /// reaction's modeled cost, sampled with the driver's RNG, to the tag.
  /// Throws std::logic_error once started.
  void attach(SimDriver& driver);

  /// Called by ~SimDriver: nothing calls into the driver afterwards.
  void detach() noexcept { driver_ = nullptr; }

  // --- event insertion ----------------------------------------------------------

  /// Runs `fn` under the scheduler mutex. Actions use this to install
  /// values in their pending map atomically with queue insertion.
  template <typename Fn>
  auto with_lock(Fn&& fn) {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    return fn();
  }

  /// Inserts an event (requires the scheduler mutex held via with_lock).
  void enqueue_locked(BaseAction* action, const Tag& tag);

  /// Inserts `count` events at one tag under a single bucket lookup — the
  /// cheap path for callers that trigger several actions at the same tag
  /// (startup, coalesced port batches). Requires the scheduler mutex.
  void enqueue_batch_locked(BaseAction* const* actions, std::size_t count, const Tag& tag);

  /// Current logical tag. Valid on the driving thread (reactions read it
  /// freely) or, from any thread, under with_lock.
  [[nodiscard]] const Tag& current_tag() const noexcept { return current_tag_; }

  /// Called after with_lock insertion to wake the driver.
  void notify();

  // --- execution-time API (called from reaction bodies) ---------------------------

  /// Stages all reactions in the port's trigger closure at the current tag.
  void stage_port_triggers(BasePort& port);

  /// Registers a port for end-of-tag cleanup.
  void register_set_port(BasePort& port);

  /// Modeled time consumed by the most recently processed tag (DES driver;
  /// zero in threaded mode). Within a tag it is added to the physical time
  /// of later deadline checks, so a slow reaction makes a later reaction at
  /// the same tag miss its deadline — exactly as it would on the platform.
  [[nodiscard]] Duration last_tag_cost() const noexcept { return busy_offset_; }

  // --- threaded driver ------------------------------------------------------------

  /// Blocking execution loop (requires a RealClock and an unclaimed
  /// scheduler; throws std::logic_error otherwise).
  void run_threaded();

  /// Requests shutdown at the earliest opportunity (thread-safe).
  void request_stop();

  // --- DES driver interface ---------------------------------------------------------

  /// Starts execution at the given tag: triggers startup actions and arms
  /// timers. Must be called exactly once before any processing.
  void start_at(const Tag& start_tag);

  /// Earliest pending tag, or Tag::maximum() when idle. Takes the stop tag
  /// into account (never returns a tag past it).
  [[nodiscard]] Tag next_tag() const;

  /// Processes the earliest pending tag if it is <= horizon; reactions run
  /// on the calling thread. Returns the processed tag, or nullopt when
  /// nothing was processed. Processing the stop tag finishes execution.
  [[nodiscard]] std::optional<Tag> process_next_tag(TimePoint horizon);

  [[nodiscard]] bool finished() const {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    return state_ == State::kFinished;
  }

  /// True between start_at() and the processing of the stop tag.
  [[nodiscard]] bool running() const {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    return state_ == State::kRunning;
  }

  // --- introspection ------------------------------------------------------------------

  [[nodiscard]] const Tag& start_tag() const noexcept { return start_tag_; }
  [[nodiscard]] std::uint64_t tags_processed() const noexcept { return tags_processed_; }
  [[nodiscard]] std::uint64_t reactions_executed() const noexcept { return reactions_executed_; }
  [[nodiscard]] std::uint64_t deadline_violations() const noexcept { return deadline_violations_; }
  [[nodiscard]] Trace& trace() noexcept { return trace_; }

  /// Startup/shutdown trigger registration (Environment assembly).
  void register_startup(BaseAction* action) { startup_actions_.push_back(action); }
  void register_shutdown(BaseAction* action) { shutdown_actions_.push_back(action); }
  void register_timer(Timer* timer) { timers_.push_back(timer); }

 private:
  enum class State : std::uint8_t { kIdle, kRunning, kFinished };

  /// start_at() with the lock held.
  void start_locked(const Tag& start_tag);

  /// Earliest pending tag, capped at the stop tag. Requires the lock.
  [[nodiscard]] Tag next_tag_locked() const;

  /// Moves the stop tag earlier to `tag` if it is later. Requires the lock.
  void lower_stop_tag_locked(const Tag& tag) noexcept;

  /// Runs one tag: pops its events and stages their reactions (locked),
  /// executes the staged levels and cleans up (unlocked), then finishes
  /// or honours a stop request (locked). Requires the lock.
  void run_tag(const Tag& tag);

  /// Runs an action's setup at `tag` and stages its reactions. Requires
  /// the lock.
  void activate_locked(BaseAction& action, const Tag& tag);

  /// Stages one reaction at the current tag.
  void stage(Reaction& reaction);

  /// Executes staged levels in order, emptying each.
  void execute_staged();

  void execute_reaction(Reaction& reaction);

  /// End-of-tag cleanup of present ports/actions.
  void finalize_tag();

  PhysicalClock& clock_;

  /// Guards event_queue_, the actions' pending values, current_tag_
  /// writes, stop_tag_, stop_requested_, state_ and wake_pending_ against
  /// foreign threads. The threaded driver waits on cv_ with
  /// mutex_.native().
  mutable common::OwnerMutex mutex_;
  std::condition_variable cv_;
  /// The attached DES driver, if any (see attach()).
  SimDriver* driver_{nullptr};
  /// Set when an insert makes the earliest pending tag earlier; notify()
  /// clears it and re-arms the attached driver.
  bool wake_pending_{false};

  EventQueue event_queue_;
  Tag current_tag_{};
  Tag start_tag_{};
  Tag stop_tag_{Tag::maximum()};
  bool stop_requested_{false};
  State state_{State::kIdle};

  // Staging of reactions for the tag being processed (driving thread).
  std::vector<std::vector<Reaction*>> staged_;
  /// Level being executed, or -1; read only by the level-monotonicity
  /// assert in stage_port_triggers.
  int current_level_{-1};
  std::vector<BasePort*> set_ports_;
  std::vector<BaseAction*> active_actions_;
  // Reused per-tag scratch (zero steady-state allocations in the loop).
  std::vector<BaseAction*> popped_actions_;

  // Configuration.
  bool keepalive_{false};
  Duration timeout_{-1};

  Duration busy_offset_{0};

  std::vector<BaseAction*> startup_actions_;
  std::vector<BaseAction*> shutdown_actions_;
  std::vector<Timer*> timers_;

  std::uint64_t tags_processed_{0};
  std::uint64_t reactions_executed_{0};
  std::uint64_t deadline_violations_{0};
  Trace trace_;
};

}  // namespace dear::reactor
