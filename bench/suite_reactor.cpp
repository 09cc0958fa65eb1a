// Reactor runtime hot-path cases.
//
// The headline pair is event_queue/map vs event_queue/pooled: the exact
// std::map<Tag, std::vector<BaseAction*>> structure the scheduler used
// before the pooled EventQueue, driven with an identical seeded
// insert/pop workload; the pooled queue must clear the 2x throughput floor
// the overhaul targets. That both pop the same sequence is pinned by
// EventQueue.InterleavedScheduleAtMatchesMapQueue. Threaded worker-pool
// scaling lives in suite_parallel.cpp.
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "reactor/event_queue.hpp"
#include "suites.hpp"
#include "topologies.hpp"

namespace dear::bench {

namespace {

using namespace dear::reactor;

/// The scheduler's previous event queue, verbatim semantics: ordered map
/// of tag -> actions in insertion order, duplicate inserts coalesced.
class MapEventQueue {
 public:
  bool insert(BaseAction* action, const Tag& tag) {
    const bool was_earliest = queue_.empty() || tag < queue_.begin()->first;
    auto& actions = queue_[tag];
    bool found = false;
    for (BaseAction* existing : actions) {
      if (existing == action) {
        found = true;
        break;
      }
    }
    if (!found) {
      actions.push_back(action);
    }
    return was_earliest;
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  [[nodiscard]] Tag earliest() const noexcept {
    return queue_.empty() ? Tag::maximum() : queue_.begin()->first;
  }

  bool pop_at(const Tag& tag, std::vector<BaseAction*>& out) {
    out.clear();
    const auto it = queue_.find(tag);
    if (it == queue_.end()) {
      return false;
    }
    out = std::move(it->second);
    queue_.erase(it);
    return true;
  }

 private:
  std::map<Tag, std::vector<BaseAction*>> queue_;
};

/// Pre-generated schedule deltas, so the timed region measures the queue
/// and not the PRNG (both queues replay the identical sequence).
struct QueuePlan {
  std::vector<TimePoint> delta;       // per re-insert: time offset from the popped tag
  std::vector<std::uint32_t> micro;   // per re-insert: microstep (exercises ties)
};

QueuePlan make_queue_plan(std::uint64_t steps, std::uint64_t fan_in, std::uint64_t seed) {
  QueuePlan plan;
  common::Rng rng(seed);
  plan.delta.reserve(steps * fan_in);
  plan.micro.reserve(steps * fan_in);
  for (std::uint64_t i = 0; i < steps * fan_in; ++i) {
    plan.delta.push_back(1 + static_cast<TimePoint>(rng.next_below(1000)));
    plan.micro.push_back(static_cast<std::uint32_t>(rng.next_below(2)));
  }
  return plan;
}

/// Steady-state scheduler traffic: a window of pending tags; every step
/// pops the earliest bucket and re-schedules each of its actions at the
/// planned future tag. Returns a checksum over the pop sequence, which
/// defeats dead-code elimination.
template <typename Queue>
std::uint64_t queue_workload(Queue& queue, std::uint64_t steps, const QueuePlan& plan) {
  constexpr std::uint64_t kWindow = 32;  // pending tags of a busy pipeline
  constexpr std::uint64_t kFanIn = 1;
  // Opaque action identities; the queues store and compare the pointers
  // but never dereference them.
  std::uintptr_t next_action = 1;
  for (std::uint64_t i = 0; i < kWindow; ++i) {
    const Tag tag{static_cast<TimePoint>(1 + i * 37), 0};
    for (std::uint64_t k = 0; k < kFanIn; ++k) {
      // NOLINTNEXTLINE(performance-no-int-to-ptr)
      queue.insert(reinterpret_cast<BaseAction*>(next_action++ << 4), tag);
    }
  }
  std::uint64_t checksum = 0;
  std::size_t cursor = 0;
  const std::size_t plan_size = plan.delta.size();
  std::vector<BaseAction*> popped;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const Tag tag = queue.earliest();
    if (!queue.pop_at(tag, popped)) {
      break;
    }
    checksum = checksum * 1099511628211ULL + static_cast<std::uint64_t>(tag.time) + tag.microstep;
    for (BaseAction* action : popped) {
      checksum = checksum * 31 + reinterpret_cast<std::uintptr_t>(action);
      const Tag next{tag.time + plan.delta[cursor], plan.micro[cursor]};
      cursor = cursor + 1 == plan_size ? 0 : cursor + 1;
      queue.insert(action, next);
    }
  }
  return checksum;
}

}  // namespace

void run_reactor_suite(Harness& h) {
  const std::uint64_t queue_steps = h.scale(100'000, 5'000);
  constexpr std::uint64_t kQueueSeed = 42;
  const QueuePlan plan = make_queue_plan(queue_steps, 1, kQueueSeed);
  // Ops per step: one bucket pop + one re-insert (the dominant real
  // pattern: one action per tag).
  const std::uint64_t queue_ops = queue_steps * 2;

  volatile std::uint64_t map_checksum = 0;
  CaseResult& map_case = h.measure("event_queue/map", queue_ops, [&] {
    MapEventQueue queue;
    map_checksum = queue_workload(queue, queue_steps, plan);
  });

  volatile std::uint64_t pooled_checksum = 0;
  CaseResult& pooled_case = h.measure("event_queue/pooled", queue_ops, [&] {
    EventQueue queue;
    pooled_checksum = queue_workload(queue, queue_steps, plan);
  });

  const double speedup = pooled_case.throughput_per_s /
                         (map_case.throughput_per_s > 0.0 ? map_case.throughput_per_s : 1.0);
  Harness::counter(pooled_case, "speedup_vs_map", speedup);
  // Quick (smoke) runs share the host with the rest of a parallel ctest
  // sweep, where preemption bursts can land on either side of the ratio;
  // the dedicated Release bench job and the committed BENCH_hotpath.json
  // enforce the real 2x floor.
  const double floor = h.quick() ? 1.2 : 2.0;
  char detail[128];
  std::snprintf(detail, sizeof(detail),
                "enqueue+dequeue throughput %.2fx vs std::map queue (floor %.1fx)", speedup,
                floor);
  h.gate("event_queue_speedup_2x", speedup >= floor, detail);

  const std::int64_t pipeline_events = static_cast<std::int64_t>(h.scale(5'000, 500));
  h.measure("pipeline_depth/16", static_cast<std::uint64_t>(pipeline_events) * 18,
            [&] { run_pipeline(16, pipeline_events); });
  h.measure("fanout/8", static_cast<std::uint64_t>(pipeline_events) * 8,
            [&] { run_fanout(8, pipeline_events); });

  const std::int64_t loop_events = static_cast<std::int64_t>(h.scale(10'000, 1'000));
  h.measure("action_scheduling", static_cast<std::uint64_t>(loop_events), [&] {
    sim::Kernel kernel;
    SimClock clock(kernel);
    Environment env(clock);
    Source source(env, loop_events);
    SimDriver driver(env, kernel, common::Rng(1));
    driver.start();
    kernel.run();
  });
}

}  // namespace dear::bench
