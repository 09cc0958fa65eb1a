#include "reactor/sim_driver.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "reactor_fixture.hpp"

namespace dear::reactor {
namespace {

using namespace dear::literals;
using testing::Counter;
using testing::Recorder;

struct SimDriverTest : ::testing::Test {
  sim::Kernel kernel;
  SimClock clock{kernel};
};

TEST_F(SimDriverTest, PhysicalTimeEqualsSimTime) {
  Environment env(clock);
  class Probe final : public Reactor {
   public:
    std::vector<std::pair<TimePoint, TimePoint>> samples;  // (logical, physical)
    explicit Probe(Environment& env) : Reactor("probe", env), timer_("t", this, 10_ms) {
      add_reaction("tick",
                   [this] {
                     samples.emplace_back(logical_time(), physical_time());
                     if (samples.size() >= 4) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_);
    }

   private:
    Timer timer_;
  };
  Probe probe(env);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(1_s);
  ASSERT_EQ(probe.samples.size(), 4u);
  for (const auto& [logical, physical] : probe.samples) {
    EXPECT_EQ(logical, physical);  // no modeled cost: zero lag
  }
}

TEST_F(SimDriverTest, ModeledCostDelaysSubsequentTags) {
  Environment env(clock);
  class Heavy final : public Reactor {
   public:
    std::vector<TimePoint> physical_times;
    explicit Heavy(Environment& env) : Reactor("heavy", env), timer_("t", this, 10_ms) {
      add_reaction("work",
                   [this] {
                     physical_times.push_back(physical_time());
                     if (physical_times.size() >= 3) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_)
          .set_modeled_cost(sim::ExecTimeModel::constant(15_ms));  // > period!
    }

   private:
    Timer timer_;
  };
  Heavy heavy(env);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(1_s);
  ASSERT_EQ(heavy.physical_times.size(), 3u);
  EXPECT_EQ(heavy.physical_times[0], 0);
  // Tag 10 ms can only be processed after the 15 ms of modeled work.
  EXPECT_EQ(heavy.physical_times[1], 15_ms);
  EXPECT_EQ(heavy.physical_times[2], 30_ms);
  EXPECT_EQ(driver.consumed_cost(), 45_ms);
}

TEST_F(SimDriverTest, IntraTagCostTriggersDownstreamDeadline) {
  // A slow reaction at a tag pushes the *same-tag* downstream reaction
  // past its deadline — the mechanism behind the deadline/error sweep.
  Environment env(clock);
  class SlowProducer final : public Reactor {
   public:
    Output<int> out{"out", this};
    explicit SlowProducer(Environment& env) : Reactor("slow", env), timer_("t", this, 20_ms) {
      add_reaction("produce",
                   [this] {
                     out.set(1);
                     if (++count_ >= 3) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_)
          .writes(out)
          .set_modeled_cost(sim::ExecTimeModel::constant(8_ms));
    }

   private:
    Timer timer_;
    int count_{0};
  };
  class DeadlineSink final : public Reactor {
   public:
    Input<int> in{"in", this};
    int ok{0};
    int violated{0};
    explicit DeadlineSink(Environment& env, Duration deadline) : Reactor("sink", env) {
      add_reaction("consume", [this] { ++ok; })
          .triggered_by(in)
          .with_deadline(deadline, [this] { ++violated; });
    }
  };
  SlowProducer producer(env);
  DeadlineSink tight(env, 5_ms);  // 8 ms of upstream work > 5 ms deadline
  env.connect(producer.out, tight.in);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(1_s);
  EXPECT_EQ(tight.ok, 0);
  EXPECT_EQ(tight.violated, 3);
}

TEST_F(SimDriverTest, GenerousDeadlineSurvivesIntraTagCost) {
  Environment env(clock);
  class SlowProducer final : public Reactor {
   public:
    Output<int> out{"out", this};
    explicit SlowProducer(Environment& env) : Reactor("slow", env), timer_("t", this, 20_ms) {
      add_reaction("produce",
                   [this] {
                     out.set(1);
                     if (++count_ >= 3) {
                       request_shutdown();
                     }
                   })
          .triggered_by(timer_)
          .writes(out)
          .set_modeled_cost(sim::ExecTimeModel::constant(8_ms));
    }

   private:
    Timer timer_;
    int count_{0};
  };
  class DeadlineSink final : public Reactor {
   public:
    Input<int> in{"in", this};
    int ok{0};
    int violated{0};
    explicit DeadlineSink(Environment& env, Duration deadline) : Reactor("sink", env) {
      add_reaction("consume", [this] { ++ok; })
          .triggered_by(in)
          .with_deadline(deadline, [this] { ++violated; });
    }
  };
  SlowProducer producer(env);
  DeadlineSink loose(env, 10_ms);
  env.connect(producer.out, loose.in);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(1_s);
  EXPECT_EQ(loose.ok, 3);
  EXPECT_EQ(loose.violated, 0);
}

TEST_F(SimDriverTest, TwoEnvironmentsCoSimulate) {
  // Two independent reactor environments (two SWC processes) share the
  // kernel; events interleave in global simulated time.
  Environment env_a(clock);
  Environment env_b(clock);
  Counter counter_a(env_a, 10_ms, 3, "counter_a");
  Recorder<int> recorder_a(env_a, "recorder_a");
  env_a.connect(counter_a.out, recorder_a.in);
  Counter counter_b(env_b, 15_ms, 2, "counter_b");
  Recorder<int> recorder_b(env_b, "recorder_b");
  env_b.connect(counter_b.out, recorder_b.in);

  SimDriver driver_a(env_a, kernel, common::Rng(1));
  SimDriver driver_b(env_b, kernel, common::Rng(2));
  driver_a.start();
  driver_b.start();
  kernel.run_until(1_s);
  EXPECT_EQ(recorder_a.entries.size(), 3u);
  EXPECT_EQ(recorder_b.entries.size(), 2u);
  EXPECT_TRUE(driver_a.finished());
  EXPECT_TRUE(driver_b.finished());
}

TEST_F(SimDriverTest, StartIsIdempotent) {
  Environment env(clock);
  Counter counter(env, 10_ms, 2);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  driver.start();  // no effect
  kernel.run_until(1_s);
  EXPECT_EQ(counter.count(), 2);
}

TEST_F(SimDriverTest, LatePhysicalActionWakesIdleEnvironment) {
  Environment::Config config;
  config.keepalive = true;
  Environment env(clock, config);
  class Sink final : public Reactor {
   public:
    PhysicalAction<int> in{"in", this};
    std::vector<TimePoint> seen;
    explicit Sink(Environment& env) : Reactor("sink", env) {
      add_reaction("on_in", [this] { seen.push_back(logical_time()); }).triggered_by(in);
    }
  };
  Sink sink(env);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(50_ms);  // environment idles with an empty queue
  kernel.schedule_at(80_ms, [&] { sink.in.schedule(1); });
  kernel.run_until(200_ms);
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0], 80_ms);
}

TEST_F(SimDriverTest, DestroyedDriverLeavesSchedulerDetached) {
  Environment::Config config;
  config.keepalive = true;
  Environment env(clock, config);
  class Sink final : public Reactor {
   public:
    PhysicalAction<int> in{"in", this};
    std::vector<int> seen;
    explicit Sink(Environment& env) : Reactor("sink", env) {
      add_reaction("on_in", [this] { seen.push_back(in.get()); })
          .triggered_by(in)
          .set_modeled_cost(sim::ExecTimeModel::uniform(1_ms, 2_ms));
    }
  };
  Sink sink(env);
  auto driver = std::make_unique<SimDriver>(env, kernel, common::Rng(1));
  driver->start();
  kernel.schedule_at(10_ms, [&] { sink.in.schedule(1); });
  kernel.run_until(50_ms);
  ASSERT_EQ(sink.seen, std::vector<int>{1});
  // Sampled with the driver's RNG.
  EXPECT_GE(env.scheduler().last_tag_cost(), 1_ms);
  EXPECT_LE(env.scheduler().last_tag_cost(), 2_ms);
  driver.reset();
  // The environment outlives its driver. Inserting an event must not re-arm
  // the freed driver, and a tag run by hand must not sample its cost RNG
  // (AddressSanitizer reports either as a heap use after free).
  sink.in.schedule(2);
  ASSERT_TRUE(env.scheduler().process_next_tag(kTimeMax).has_value());
  EXPECT_EQ(sink.seen, (std::vector<int>{1, 2}));
  EXPECT_EQ(env.scheduler().last_tag_cost(), 0);
}

TEST(SingleOwnerScheduler, SimDriverClaimsTheSchedulerAtStart) {
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment env(clock);
  Counter counter(env, 10_ms, 5);
  Recorder<int> recorder(env);
  env.connect(counter.out, recorder.in);
  std::vector<Tag> seen;
  class Probe final : public Reactor {
   public:
    Probe(Environment& env, std::vector<Tag>& seen)
        : Reactor("probe", env), timer_("t", this, 10_ms) {
      add_reaction("look",
                   [this, &env, &seen] {
                     // The environment's view of the tag must agree with the
                     // tag the reaction runs at.
                     EXPECT_EQ(env.current_tag(), current_tag());
                     seen.push_back(env.current_tag());
                   })
          .triggered_by(timer_);
    }

   private:
    Timer timer_;
  };
  Probe probe(env, seen);
  SimDriver driver(env, kernel, common::Rng(1));
  EXPECT_FALSE(env.scheduler().single_owner());
  driver.start();
  EXPECT_TRUE(env.scheduler().single_owner());
  kernel.run_until(1_s);
  EXPECT_TRUE(driver.finished());
  EXPECT_EQ(recorder.entries.size(), 5u);
  EXPECT_EQ(seen.size(), 5u);
  // 5 emits + 5 records + 5 probes through the plain serial counter.
  EXPECT_EQ(env.scheduler().reactions_executed(), 15u);
  EXPECT_THROW(env.scheduler().claim_single_owner(), std::logic_error);
}

TEST(SingleOwnerScheduler, RunThreadedRefusesAClaimedScheduler) {
  sim::Kernel kernel;
  SimClock sim_clock(kernel);
  Environment sim_env(sim_clock);
  Counter sim_counter(sim_env, 1_ms, 1);
  SimDriver driver(sim_env, kernel, common::Rng(1));
  driver.start();
  try {
    sim_env.scheduler().run_threaded();
    ADD_FAILURE() << "run_threaded accepted a SimDriver-driven scheduler";
  } catch (const std::logic_error& error) {
    EXPECT_NE(std::string(error.what()).find("single-owner"), std::string::npos) << error.what();
  }

  // The same refusal on a real clock: ownership, not the clock, decides.
  RealClock real_clock;
  Environment env(real_clock);
  Counter counter(env, 1_ms, 1);
  env.assemble();
  env.scheduler().claim_single_owner();
  EXPECT_THROW(env.run(), std::logic_error);
  EXPECT_EQ(counter.count(), 0);
}

TEST(SingleOwnerScheduler, ThreadedDriverKeepsItsLocks) {
  RealClock clock;
  Environment env(clock);
  Counter counter(env, 1_ms, 3);
  env.run();
  EXPECT_FALSE(env.scheduler().single_owner());
  EXPECT_EQ(counter.count(), 3);
}

}  // namespace
}  // namespace dear::reactor
