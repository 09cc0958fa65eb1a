#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace dear::sim {
namespace {

using namespace dear::literals;

TEST(Kernel, ProcessesInTimeOrder) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(30, [&] { order.push_back(3); });
  kernel.schedule_at(10, [&] { order.push_back(1); });
  kernel.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(kernel.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.now(), 30);
}

TEST(Kernel, EqualTimesUseInsertionOrder) {
  Kernel kernel;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    kernel.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  kernel.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(Kernel, PriorityBreaksTimeTies) {
  Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(5, [&] { order.push_back(2); }, 1);
  kernel.schedule_at(5, [&] { order.push_back(1); }, 0);
  kernel.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, PastTimesClampToNow) {
  Kernel kernel;
  kernel.schedule_at(100, [] {});
  kernel.run();
  EXPECT_EQ(kernel.now(), 100);
  TimePoint ran_at = 0;
  kernel.schedule_at(5, [&] { ran_at = kernel.now(); });
  kernel.run();
  EXPECT_EQ(ran_at, 100);  // not time travel
}

TEST(Kernel, ScheduleAfter) {
  Kernel kernel;
  kernel.schedule_at(50, [] {});
  kernel.run();
  TimePoint ran_at = 0;
  kernel.schedule_after(25, [&] { ran_at = kernel.now(); });
  kernel.run();
  EXPECT_EQ(ran_at, 75);
}

TEST(Kernel, NegativeDelayClampsToZero) {
  Kernel kernel;
  kernel.schedule_at(10, [] {});
  kernel.run();
  TimePoint ran_at = -1;
  kernel.schedule_after(-100, [&] { ran_at = kernel.now(); });
  kernel.run();
  EXPECT_EQ(ran_at, 10);
}

TEST(Kernel, CancelPreventsExecution) {
  Kernel kernel;
  bool ran = false;
  const EventId id = kernel.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(kernel.cancel(id));
  EXPECT_FALSE(kernel.cancel(id));  // already cancelled
  kernel.run();
  EXPECT_FALSE(ran);
}

TEST(Kernel, CancelUnknownIdFails) {
  Kernel kernel;
  EXPECT_FALSE(kernel.cancel(12345));
}

TEST(Kernel, CancelAfterRunFails) {
  Kernel kernel;
  int runs = 0;
  EventId self = 0;
  bool self_cancelled = true;
  const EventId id = kernel.schedule_at(10, [&] { ++runs; });
  self = kernel.schedule_at(15, [&] { self_cancelled = kernel.cancel(self); });
  kernel.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(self_cancelled);  // a running event is no longer pending
  EXPECT_FALSE(kernel.cancel(id));
  EXPECT_TRUE(kernel.empty());
  kernel.schedule_at(20, [&] { ++runs; });
  EXPECT_EQ(kernel.run(), 1u);
  EXPECT_EQ(runs, 2);
}

TEST(Kernel, CancelAnywhereInTheQueueKeepsTheOrder) {
  // Cancelled events leave the middle of the heap; the survivors must
  // still run in (time, priority, insertion) order.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    common::Rng rng(seed);
    Kernel kernel;
    struct Key {
      TimePoint time;
      int priority;
      EventId id;
      bool operator<(const Key& other) const {
        return std::tie(time, priority, id) < std::tie(other.time, other.priority, other.id);
      }
      bool operator==(const Key& other) const = default;
    };
    std::vector<Key> scheduled;
    std::vector<Key> ran;
    for (int i = 0; i < 48; ++i) {
      const auto time = static_cast<TimePoint>(rng.next_below(16));
      const auto priority = static_cast<int>(rng.next_below(3));
      const EventId id = kernel.schedule_at(
          time, [&ran, &kernel, priority, i] {
            ran.push_back(Key{kernel.now(), priority, static_cast<EventId>(i)});
          },
          priority);
      scheduled.push_back(Key{time, priority, id});
    }
    std::vector<Key> survivors;
    for (const Key& key : scheduled) {
      if (rng.next_below(3) == 0) {
        ASSERT_TRUE(kernel.cancel(key.id));
        ASSERT_FALSE(kernel.cancel(key.id));
      } else {
        survivors.push_back(key);
      }
    }
    std::sort(survivors.begin(), survivors.end());
    kernel.run();
    EXPECT_EQ(ran, survivors) << "seed " << seed;
  }
}

TEST(Kernel, HandlersCanScheduleMoreEvents) {
  Kernel kernel;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) {
      kernel.schedule_after(10, chain);
    }
  };
  kernel.schedule_at(0, chain);
  kernel.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(kernel.now(), 40);
}

TEST(Kernel, RunUntilStopsAtHorizonAndAdvancesNow) {
  Kernel kernel;
  std::vector<TimePoint> fired;
  for (TimePoint t : {10, 20, 30, 40}) {
    kernel.schedule_at(t, [&fired, &kernel] { fired.push_back(kernel.now()); });
  }
  EXPECT_EQ(kernel.run_until(25), 2u);
  EXPECT_EQ(kernel.now(), 25);
  EXPECT_EQ(fired, (std::vector<TimePoint>{10, 20}));
  EXPECT_EQ(kernel.run_until(100), 2u);
  EXPECT_EQ(kernel.now(), 100);
}

TEST(Kernel, RunUntilIncludesEventsAtHorizon) {
  Kernel kernel;
  bool ran = false;
  kernel.schedule_at(50, [&] { ran = true; });
  kernel.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(Kernel, StopHaltsRun) {
  Kernel kernel;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    kernel.schedule_at(i, [&] {
      if (++count == 3) {
        kernel.stop();
      }
    });
  }
  kernel.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(kernel.stopped());
  kernel.reset_stop();
  kernel.run();
  EXPECT_EQ(count, 10);
}

TEST(Kernel, StepProcessesOne) {
  Kernel kernel;
  int count = 0;
  kernel.schedule_at(1, [&] { ++count; });
  kernel.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(kernel.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(kernel.step());
  EXPECT_FALSE(kernel.step());
  EXPECT_EQ(count, 2);
}

TEST(Kernel, NextEventTimeAndEmpty) {
  Kernel kernel;
  EXPECT_TRUE(kernel.empty());
  EXPECT_EQ(kernel.next_event_time(), kTimeMax);
  const EventId id = kernel.schedule_at(42, [] {});
  EXPECT_EQ(kernel.next_event_time(), 42);
  EXPECT_FALSE(kernel.empty());
  kernel.cancel(id);
  EXPECT_TRUE(kernel.empty());
  EXPECT_EQ(kernel.next_event_time(), kTimeMax);
}

TEST(Kernel, CountsProcessedEvents) {
  Kernel kernel;
  for (int i = 0; i < 7; ++i) {
    kernel.schedule_after(i, [] {});
  }
  kernel.run();
  EXPECT_EQ(kernel.events_processed(), 7u);
  EXPECT_EQ(kernel.events_scheduled(), 7u);
}

}  // namespace
}  // namespace dear::sim
