// Discrete-event simulation kernel.
//
// This is the substrate that stands in for the paper's physical testbed
// (two MinnowBoard Turbot boards + Ethernet switch). Platform scheduling
// jitter, network latency and clock drift are modeled on top of this
// kernel; all randomness comes from seeded streams, so runs are
// bit-reproducible.
//
// Events are ordered by (time, priority, insertion sequence). Equal-keyed
// events therefore execute in insertion order, which makes the kernel
// itself deterministic; *modeled* nondeterminism is injected explicitly by
// the layers above (e.g. dispatch jitter in SimExecutor).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/binary_heap.hpp"
#include "common/time.hpp"
#include "obs/obs.hpp"

namespace dear::sim {

using EventId = std::uint64_t;

class Kernel {
 public:
  using Handler = std::function<void()>;

  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Lifetime totals flush into the metrics registry at teardown, so the
  /// hot loop keeps its plain member counters (no per-event registry
  /// traffic; the kernel is single-threaded by construction).
  ~Kernel() {
    obs::count(obs::Counter::kSimEventsScheduled, next_id_);
    obs::count(obs::Counter::kSimEventsProcessed, processed_);
  }

  /// Schedules `handler` at absolute time `time`. Times in the past (before
  /// now()) are clamped to now(). Returns an id usable with cancel().
  EventId schedule_at(TimePoint time, Handler handler, int priority = 0);

  /// Schedules `handler` `delay` from now (negative delays clamp to 0).
  EventId schedule_after(Duration delay, Handler handler, int priority = 0);

  /// Cancels a pending event and removes it from the queue (a scan of the
  /// pending events). Returns false when the event already ran, was
  /// cancelled before, or never existed.
  bool cancel(EventId id);

  /// Current simulation time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Runs until the queue drains or stop() is called. Returns the number of
  /// events processed by this call.
  std::uint64_t run();

  /// Processes all events with time <= horizon, then advances now() to
  /// horizon. Returns events processed.
  std::uint64_t run_until(TimePoint horizon);

  /// Processes a single event. Returns false when the queue is empty.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Clears the stop flag so the kernel can be reused.
  void reset_stop() noexcept { stopped_ = false; }

  /// Time of the earliest pending event, or kTimeMax when empty.
  [[nodiscard]] TimePoint next_event_time() const;

  [[nodiscard]] bool empty() const;

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t events_scheduled() const noexcept { return next_id_; }

 private:
  struct Event {
    TimePoint time;
    int priority;
    EventId id;  // doubles as insertion sequence
    Handler handler;
  };

  struct Sooner {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.id < b.id;
    }
  };

  /// Same pooled min-heap as the reactor event queue: capacity is retained
  /// across pop/push cycles and the top event moves out without the
  /// const_cast std::priority_queue forced on handler extraction.
  common::BinaryHeap<Event, Sooner> queue_;
  TimePoint now_{0};
  EventId next_id_{0};
  std::uint64_t processed_{0};
  bool stopped_{false};
};

}  // namespace dear::sim
