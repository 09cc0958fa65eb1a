// Threaded scheduler tests: real clock, physical actions from foreign
// threads, deadlines under real time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <thread>

#include "reactor_fixture.hpp"

namespace dear::reactor {
namespace {

using namespace dear::literals;
using testing::Counter;
using testing::Recorder;

TEST(ThreadedScheduler, RunsTimerProgramToShutdown) {
  RealClock clock;
  Environment env(clock);
  Counter counter(env, 1_ms, 10);
  Recorder<int> recorder(env);
  env.connect(counter.out, recorder.in);
  env.run();
  ASSERT_EQ(recorder.entries.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(recorder.entries[static_cast<std::size_t>(i)].value, i);
  }
  EXPECT_EQ(env.scheduler().tags_processed(), 11u);  // 10 timer tags + shutdown
}

TEST(ThreadedScheduler, TimerTagsFollowRealTime) {
  // Events are never handled before physical time exceeds their tag.
  RealClock clock;
  Environment env(clock);
  class Probe final : public Reactor {
   public:
    std::vector<Duration> lags;
    explicit Probe(Environment& env) : Reactor("probe", env), timer_("t", this, 2_ms) {
      add_reaction("tick",
                   [this] {
                     lags.push_back(physical_time() - logical_time());
                     if (lags.size() >= 5) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_);
    }

   private:
    Timer timer_;
  };
  Probe probe(env);
  env.run();
  ASSERT_EQ(probe.lags.size(), 5u);
  for (const Duration lag : probe.lags) {
    EXPECT_GE(lag, 0) << "reaction ran before physical time reached the tag";
    EXPECT_LT(lag, 100_ms) << "implausible scheduling lag";
  }
}

TEST(ThreadedScheduler, TimeoutTerminatesRun) {
  RealClock clock;
  Environment::Config config;
  config.timeout = 10_ms;
  Environment env(clock, config);
  class Endless final : public Reactor {
   public:
    int ticks{0};
    explicit Endless(Environment& env) : Reactor("endless", env), timer_("t", this, 1_ms) {
      add_reaction("tick", [this] { ++ticks; }).triggered_by(timer_);
    }

   private:
    Timer timer_;
  };
  Endless endless(env);
  env.run();
  EXPECT_GE(endless.ticks, 9);
  EXPECT_LE(endless.ticks, 11);
}

TEST(ThreadedScheduler, KeepaliveWaitsForPhysicalActions) {
  RealClock clock;
  Environment::Config config;
  config.keepalive = true;
  Environment env(clock, config);
  class Sink final : public Reactor {
   public:
    PhysicalAction<int> in{"in", this};
    std::atomic<int> received{0};
    explicit Sink(Environment& env) : Reactor("sink", env) {
      add_reaction("on_in",
                   [this] {
                     received.fetch_add(in.get());
                     if (received.load() >= 30) {
                       request_shutdown();
                     }
                   })
          .triggered_by(in);
    }
  };
  Sink sink(env);
  std::thread producer([&] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      sink.in.schedule(10);
    }
  });
  env.run();  // returns once the sink requested shutdown
  producer.join();
  EXPECT_EQ(sink.received.load(), 30);
}

TEST(ThreadedScheduler, RequestShutdownFromOutside) {
  RealClock clock;
  Environment::Config config;
  config.keepalive = true;
  Environment env(clock, config);
  Counter counter(env, 1_ms, 1'000'000);  // would run for ages
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    env.request_shutdown();
  });
  env.run();
  stopper.join();
  EXPECT_LT(counter.count(), 1'000'000);
}

TEST(ThreadedScheduler, ForeignThreadsSchedulePhysicalActionsWhileReactionsSetPorts) {
  // Two producer threads insert events through the scheduler mutex while
  // the driving thread runs reactions that set a chain of ports, which
  // stages downstream reactions without any lock.
  constexpr int kPerThread = 300;
  constexpr int kRelays = 4;
  RealClock clock;
  Environment::Config config;
  config.keepalive = true;
  config.timeout = 30_s;  // a lost event fails the test instead of hanging it
  Environment env(clock, config);
  class Source final : public Reactor {
   public:
    PhysicalAction<int> from_a{"from_a", this};
    PhysicalAction<int> from_b{"from_b", this};
    Output<int> out{"out", this};
    std::vector<int> seen_a;
    std::vector<int> seen_b;
    explicit Source(Environment& env) : Reactor("source", env) {
      add_reaction("forward",
                   [this] {
                     int present = 0;
                     if (from_a.is_present()) {
                       seen_a.push_back(from_a.get());
                       ++present;
                     }
                     if (from_b.is_present()) {
                       seen_b.push_back(from_b.get());
                       ++present;
                     }
                     out.set(present);
                   })
          .triggered_by(from_a)
          .triggered_by(from_b)
          .writes(out);
    }
  };
  class Relay final : public Reactor {
   public:
    Input<int> in{"in", this};
    Output<int> out{"out", this};
    Relay(Environment& env, std::string name) : Reactor(std::move(name), env) {
      add_reaction("relay", [this] { out.set(in.get()); }).triggered_by(in).writes(out);
    }
  };
  class Sink final : public Reactor {
   public:
    Input<int> in{"in", this};
    std::vector<Tag> tags;
    int events{0};
    explicit Sink(Environment& env) : Reactor("sink", env) {
      add_reaction("count",
                   [this] {
                     tags.push_back(current_tag());
                     events += in.get();
                     if (events == 2 * kPerThread) {
                       request_shutdown();
                     }
                   })
          .triggered_by(in);
    }
  };
  Source source(env);
  std::vector<std::unique_ptr<Relay>> relays;
  for (int i = 0; i < kRelays; ++i) {
    relays.push_back(std::make_unique<Relay>(env, "relay" + std::to_string(i)));
    env.connect(i == 0 ? source.out : relays[static_cast<std::size_t>(i - 1)]->out,
                relays.back()->in);
  }
  Sink sink(env);
  env.connect(relays.back()->out, sink.in);

  const auto produce = [&env](PhysicalAction<int>& action) {
    return [&env, &action] {
      // An event scheduled before start_at would be tagged before the
      // start tag, so wait until the driving thread has started.
      while (!env.scheduler().running()) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerThread; ++i) {
        action.schedule(i);
      }
    };
  };
  std::thread producer_a(produce(source.from_a));
  std::thread producer_b(produce(source.from_b));
  env.run();  // returns once the sink has counted every event
  producer_a.join();
  producer_b.join();

  std::vector<int> expected(kPerThread);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(source.seen_a, expected);  // each event fired exactly once, in order
  EXPECT_EQ(source.seen_b, expected);
  EXPECT_EQ(sink.events, 2 * kPerThread);
  ASSERT_FALSE(sink.tags.empty());
  for (std::size_t i = 1; i < sink.tags.size(); ++i) {
    EXPECT_LT(sink.tags[i - 1], sink.tags[i]) << "at tag index " << i;
  }
}

TEST(ThreadedScheduler, DeadlineViolationRunsHandlerInsteadOfBody) {
  RealClock clock;
  Environment env(clock);
  class Late final : public Reactor {
   public:
    int body_runs{0};
    int handler_runs{0};
    explicit Late(Environment& env) : Reactor("late", env), timer_("t", this, 2_ms) {
      // The first reaction at each tag burns ~3 ms of physical time; the
      // second has a 1 ms deadline relative to the same tag, which is
      // violated because physical time has already passed tag + 1 ms.
      add_reaction("burn",
                   [this] {
                     std::this_thread::sleep_for(std::chrono::milliseconds(3));
                     if (++ticks_ >= 3) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_);
      add_reaction("check", [this] { ++body_runs; })
          .triggered_by(timer_)
          .with_deadline(1_ms, [this] { ++handler_runs; });
    }

   private:
    Timer timer_;
    int ticks_{0};
  };
  Late late(env);
  env.run();
  EXPECT_EQ(late.body_runs, 0);
  EXPECT_EQ(late.handler_runs, 3);
  EXPECT_EQ(env.scheduler().deadline_violations(), 3u);
}

TEST(ThreadedScheduler, DeadlineMetRunsBody) {
  RealClock clock;
  Environment env(clock);
  class OnTime final : public Reactor {
   public:
    int body_runs{0};
    int handler_runs{0};
    explicit OnTime(Environment& env) : Reactor("on_time", env), timer_("t", this, 2_ms) {
      add_reaction("check",
                   [this] {
                     if (++body_runs >= 3) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_)
          .with_deadline(500_ms, [this] { ++handler_runs; });
    }

   private:
    Timer timer_;
  };
  OnTime on_time(env);
  env.run();
  EXPECT_EQ(on_time.body_runs, 3);
  EXPECT_EQ(on_time.handler_runs, 0);
}

TEST(ThreadedScheduler, StatsAreConsistent) {
  RealClock clock;
  Environment env(clock);
  Counter counter(env, 1_ms, 5);
  Recorder<int> recorder(env);
  env.connect(counter.out, recorder.in);
  env.run();
  EXPECT_EQ(env.scheduler().reactions_executed(), 10u);  // 5 emits + 5 records
  EXPECT_EQ(env.scheduler().deadline_violations(), 0u);
}

TEST(ThreadedScheduler, RunRequiresRealClock) {
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment env(clock);
  Counter counter(env, 1_ms, 1);
  EXPECT_THROW(env.run(), std::logic_error);
}

}  // namespace
}  // namespace dear::reactor
