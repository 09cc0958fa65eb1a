// Event scheduler.
//
// One scheduler core serves two execution drivers:
//   * the threaded driver (run_threaded): a blocking loop that waits on a
//     real clock until physical time reaches the next tag, then executes
//     the staged reactions;
//   * the DES driver (SimDriver in sim_driver.hpp): calls process_next_tag
//     from kernel callbacks, with physical time = simulation time.
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
// Thread safety depends on the driver. Under the threaded driver, event
// insertion (actions, request_stop) is safe from any thread: the tag loop
// and inserters share mutex_, reactions stage through staging_mutex_, and
// current_tag() reads a seqlock-published copy. Under the DES driver one
// kernel thread does everything, so SimDriver claims the scheduler as
// single-owner before it starts: both mutexes become no-ops, the seqlock
// is skipped, and notify() neither signals the condition variable nor pays
// an atomic read-modify-write. A claimed scheduler must never be touched
// from a second thread; debug builds assert on overlapping acquisitions,
// and run_threaded() refuses a claimed scheduler.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
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
class Timer;

class Scheduler {
 public:
  explicit Scheduler(PhysicalClock& clock);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- configuration (before start) -------------------------------------------

  void configure(int level_count, bool keepalive, Duration timeout);

  /// Declares that one thread will drive this scheduler for its whole life
  /// (SimDriver does, before start_at): drops the locks and atomics of the
  /// tag loop. Throws std::logic_error once started.
  void claim_single_owner();
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

  /// Invoked (outside the lock) whenever the earliest pending tag becomes
  /// earlier than it was — the SimDriver uses this to re-arm its kernel
  /// wake-up.
  void set_wake_callback(std::function<void()> callback) { wake_callback_ = std::move(callback); }

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

  /// Current logical tag (requires lock for exactness; used by actions
  /// inside with_lock).
  [[nodiscard]] const Tag& current_tag_locked() const noexcept { return current_tag_; }

  /// Lock-free snapshot of the current logical tag (seqlock over the
  /// published copy). Callers hit this once per reaction, so it must not
  /// contend with event insertion on the scheduler mutex. A single-owner
  /// scheduler has no other reader and skips the publication.
  [[nodiscard]] Tag current_tag() const noexcept {
    if (single_owner()) {
      return current_tag_;
    }
    for (;;) {
      const std::uint32_t before = tag_seq_.load(std::memory_order_acquire);
      const Tag tag{published_tag_time_.load(std::memory_order_relaxed),
                    published_tag_microstep_.load(std::memory_order_relaxed)};
      std::atomic_thread_fence(std::memory_order_acquire);
      if ((before & 1u) == 0 && tag_seq_.load(std::memory_order_relaxed) == before) {
        return tag;
      }
    }
  }

  /// Called after with_lock insertion to wake a waiting driver.
  void notify();

  // --- execution-time API (called from reaction bodies) ---------------------------

  /// Stages all reactions in the port's trigger closure at the current tag.
  void stage_port_triggers(BasePort& port);

  /// Registers a port for end-of-tag cleanup.
  void register_set_port(BasePort& port);

  /// Installs a modeled execution-cost hook (DES driver): after each
  /// reaction executes, the hook returns the platform time it consumed;
  /// the accumulated offset is added to the physical time used in
  /// subsequent deadline checks at the same tag, so a slow reaction makes
  /// a later reaction at the same tag miss its deadline — exactly as it
  /// would on the real platform.
  void set_exec_cost_hook(std::function<Duration(const Reaction&)> hook) {
    exec_cost_hook_ = std::move(hook);
  }

  /// Modeled time consumed by the most recently processed tag.
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
  /// on the calling thread. Returns the executed reactions (for modeled
  /// cost accounting), or nullopt when nothing was processed. Processing
  /// the stop tag finishes execution.
  struct TagResult {
    Tag tag;
    /// Executed reactions in execution order; views a scheduler-owned
    /// buffer that is valid until the next process_next_tag call.
    std::span<Reaction* const> executed;
  };
  [[nodiscard]] std::optional<TagResult> process_next_tag(TimePoint horizon);

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
  [[nodiscard]] std::uint64_t deadline_violations() const noexcept {
    return deadline_violations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] Trace& trace() noexcept { return trace_; }

  /// Startup/shutdown trigger registration (Environment assembly).
  void register_startup(BaseAction* action) { startup_actions_.push_back(action); }
  void register_shutdown(BaseAction* action) { shutdown_actions_.push_back(action); }
  void register_timer(Timer* timer) { timers_.push_back(timer); }

 private:
  enum class State : std::uint8_t { kIdle, kRunning, kFinished };

  /// Pops all actions at `tag`, runs setup, stages triggered reactions.
  /// Requires the lock; `is_stop` additionally triggers shutdown actions.
  void prepare_tag_locked(const Tag& tag, bool is_stop);

  /// Updates current_tag_ and, unless single-owner, publishes the seqlock
  /// snapshot. Requires the lock.
  void set_current_tag_locked(const Tag& tag) noexcept;

  /// Executes staged levels; the lock must NOT be held. Appends executed
  /// reactions to executed_buffer_.
  void execute_staged();

  /// Stages one reaction at the current tag (staging mutex must be held).
  void stage_locked(Reaction& reaction);

  /// End-of-tag cleanup of present ports/actions. Requires the lock.
  void finalize_tag_locked();

  void execute_reaction(Reaction& reaction);

  PhysicalClock& clock_;

  /// Both scheduler mutexes are claimed together (claim_single_owner);
  /// mutex_'s claim is the single-owner flag the tag loop tests. The
  /// threaded driver waits on cv_ with mutex_.native().
  mutable common::OwnerMutex mutex_;
  std::condition_variable cv_;
  std::function<void()> wake_callback_;
  std::atomic<bool> wake_pending_{false};

  EventQueue event_queue_;
  Tag current_tag_{};
  Tag start_tag_{};
  Tag stop_tag_{Tag::maximum()};
  bool stop_requested_{false};
  State state_{State::kIdle};

  // Seqlock publication of current_tag_ for the lock-free current_tag().
  mutable std::atomic<std::uint32_t> tag_seq_{0};
  std::atomic<TimePoint> published_tag_time_{0};
  std::atomic<std::uint32_t> published_tag_microstep_{0};

  // Staging of reactions for the tag being processed.
  common::OwnerMutex staging_mutex_;
  std::vector<std::vector<Reaction*>> staged_;
  int current_level_{-1};
  std::vector<BasePort*> set_ports_;
  std::vector<BaseAction*> active_actions_;
  // Reused per-tag scratch (zero steady-state allocations in the loop).
  std::vector<BaseAction*> popped_actions_;
  std::vector<Reaction*> level_batch_buffer_;
  std::vector<Reaction*> executed_buffer_;

  // Configuration.
  bool keepalive_{false};
  Duration timeout_{-1};

  std::function<Duration(const Reaction&)> exec_cost_hook_;
  Duration busy_offset_{0};

  std::vector<BaseAction*> startup_actions_;
  std::vector<BaseAction*> shutdown_actions_;
  std::vector<Timer*> timers_;

  std::uint64_t tags_processed_{0};
  std::uint64_t reactions_executed_{0};
  std::atomic<std::uint64_t> deadline_violations_{0};
  Trace trace_;
};

}  // namespace dear::reactor
