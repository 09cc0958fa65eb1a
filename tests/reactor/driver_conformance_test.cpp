// Driver conformance: the threaded driver and SimDriver produce
// bit-identical raw execution traces — not just sorted-within-tag equal —
// and identical tag sequences on the pipeline, fan-out and microstep
// topologies (the same families the event-queue conformance suite pins
// down on the queue itself).
//
// Both drivers run a tag's reactions serially on their own thread, level
// by level in staging order, so staging order, port cleanup order and the
// trace may not depend on which driver runs the program, on the clock it
// reads, on repetition, or on other environments running at the same time
// on other threads (the campaign runner's pattern). Any such leak into
// observable order shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "reactor/graph.hpp"
#include "reactor_fixture.hpp"

namespace dear::reactor {
namespace {

using testing::LoopRelay;
using testing::LoopSink;
using testing::LoopSource;

struct RunDigests {
  std::uint64_t trace{0};     // raw (tag, fqn, violated) sequence, relative tags
  std::uint64_t tags{0};      // processed tag sequence, relative
  std::int64_t checksum{0};   // functional output (sink sums)
  std::uint64_t reactions{0};

  bool operator==(const RunDigests&) const = default;
};

/// Digests the raw trace in recording order — tags relative to the start
/// tag so real-clock and simulated runs compare.
RunDigests digest_run(Environment& env, std::int64_t checksum) {
  RunDigests digests;
  digests.checksum = checksum;
  digests.reactions = env.scheduler().reactions_executed();
  const TimePoint start = env.start_time();
  Tag previous = Tag::maximum();
  for (const TraceRecord& record : env.trace().records()) {
    common::mix_digest(digests.trace, static_cast<std::uint64_t>(record.tag.time - start));
    common::mix_digest(digests.trace, record.tag.microstep);
    for (const char c : record.reaction) {
      common::mix_digest(digests.trace, static_cast<std::uint64_t>(c));
    }
    common::mix_digest(digests.trace, record.deadline_violated ? 1 : 0);
    if (!(record.tag == previous)) {
      previous = record.tag;
      common::mix_digest(digests.tags, static_cast<std::uint64_t>(record.tag.time - start));
      common::mix_digest(digests.tags, record.tag.microstep);
    }
  }
  return digests;
}

enum class Driver { kThreaded, kSim };

/// One traced environment on either driver: the threaded driver on a real
/// clock, or SimDriver on its own DES kernel.
class Run {
 public:
  explicit Run(Driver driver)
      : driver_(driver), sim_clock_(kernel_), env_(clock(), traced_config()) {}

  [[nodiscard]] Environment& env() noexcept { return env_; }

  /// Runs the program until it shuts itself down.
  void execute() {
    if (driver_ == Driver::kThreaded) {
      env_.run();
      return;
    }
    SimDriver driver(env_, kernel_, common::Rng(1));
    driver.start();
    kernel_.run();
    ASSERT_TRUE(driver.finished());
  }

 private:
  static Environment::Config traced_config() {
    Environment::Config config;
    config.tracing = true;
    return config;
  }

  PhysicalClock& clock() noexcept {
    if (driver_ == Driver::kThreaded) {
      return real_clock_;
    }
    return sim_clock_;
  }

  Driver driver_;
  sim::Kernel kernel_;
  RealClock real_clock_;
  SimClock sim_clock_;
  Environment env_;
};

/// source -> relay x4 -> sink: deep levels, one reaction each. With
/// `consume_plan`, the environment installs a precompiled schedule plan
/// (DependencyGraph::export_plan of an identical probe graph) instead of
/// deriving levels at assembly — observably identical by contract.
RunDigests run_pipeline(Driver driver, std::int64_t events, bool consume_plan = false) {
  Run run(driver);
  Environment& env = run.env();
  LoopSource source(env, events);
  std::vector<std::unique_ptr<LoopRelay>> relays;
  for (int i = 0; i < 4; ++i) {
    relays.push_back(std::make_unique<LoopRelay>(env, "relay" + std::to_string(i)));
  }
  LoopSink sink(env, "sink");
  Output<std::int64_t>* previous = &source.out;
  for (auto& relay : relays) {
    env.connect(*previous, relay->in);
    previous = &relay->out;
  }
  env.connect(*previous, sink.in);
  if (consume_plan) {
    DependencyGraph probe(env);
    env.set_schedule_plan(probe.export_plan());
  }
  run.execute();
  return digest_run(env, sink.sum);
}

/// source -> 8 sinks: one 8-wide level per event.
RunDigests run_fanout(Driver driver, std::int64_t events) {
  Run run(driver);
  Environment& env = run.env();
  LoopSource source(env, events);
  std::vector<std::unique_ptr<LoopSink>> sinks;
  std::int64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    sinks.push_back(std::make_unique<LoopSink>(env, "sink" + std::to_string(i)));
    env.connect(source.out, sinks.back()->in);
  }
  run.execute();
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    checksum += sinks[i]->sum * static_cast<std::int64_t>(i + 1);
  }
  return digest_run(env, checksum);
}

/// Two chained zero-delay actions per frame: every frame walks microsteps
/// (t, m) -> (t, m+1), each microstep fanning out to its own sinks.
class MicrostepSource final : public Reactor {
 public:
  Output<std::int64_t> out_a{"out_a", this};
  Output<std::int64_t> out_b{"out_b", this};

  MicrostepSource(Environment& env, std::int64_t limit)
      : Reactor("microstep_source", env), limit_(limit) {
    add_reaction("kick", [this] { a_.schedule(Empty{}); }).triggered_by(startup_);
    add_reaction("on_a",
                 [this] {
                   out_a.set(count_);
                   b_.schedule(Empty{});  // same time, next microstep
                 })
        .triggered_by(a_)
        .writes(out_a);
    add_reaction("on_b",
                 [this] {
                   out_b.set(count_ * 3);
                   if (++count_ < limit_) {
                     a_.schedule(Empty{}, 1);
                   } else {
                     request_shutdown();
                   }
                 })
        .triggered_by(b_)
        .writes(out_b);
  }

 private:
  StartupTrigger startup_{"startup", this};
  LogicalAction<Empty> a_{"a", this};
  LogicalAction<Empty> b_{"b", this};
  std::int64_t limit_;
  std::int64_t count_{0};
};

RunDigests run_microstep(Driver driver, std::int64_t events) {
  Run run(driver);
  Environment& env = run.env();
  MicrostepSource source(env, events);
  std::vector<std::unique_ptr<LoopSink>> sinks;
  std::int64_t checksum = 0;
  for (int i = 0; i < 3; ++i) {
    sinks.push_back(std::make_unique<LoopSink>(env, "sink_a" + std::to_string(i)));
    env.connect(source.out_a, sinks.back()->in);
    sinks.push_back(std::make_unique<LoopSink>(env, "sink_b" + std::to_string(i)));
    env.connect(source.out_b, sinks.back()->in);
  }
  run.execute();
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    checksum += sinks[i]->sum * static_cast<std::int64_t>(i + 1);
  }
  return digest_run(env, checksum);
}

/// Runs `workers` copies of one program at once, each in its own
/// environment on its own thread, alternating the threaded driver and
/// SimDriver. Returns each copy's digests.
template <typename RunFn>
std::vector<RunDigests> run_concurrently(unsigned workers, RunFn run) {
  std::vector<RunDigests> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    const Driver driver = i % 2 == 0 ? Driver::kThreaded : Driver::kSim;
    threads.emplace_back([&results, &run, i, driver] { results[i] = run(driver); });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return results;
}

constexpr std::int64_t kEvents = 300;

TEST(DriverConformance, PipelineTraceIdenticalAcrossDrivers) {
  const RunDigests threaded = run_pipeline(Driver::kThreaded, kEvents);
  EXPECT_EQ(threaded.reactions, 6u * kEvents + 1);  // kick + 6 stages per event
  EXPECT_EQ(run_pipeline(Driver::kSim, kEvents), threaded);
}

TEST(DriverConformance, FanoutTraceIdenticalAcrossDrivers) {
  const RunDigests threaded = run_fanout(Driver::kThreaded, kEvents);
  EXPECT_EQ(threaded.reactions, 9u * kEvents + 1);  // kick + emit + 8 sinks
  EXPECT_EQ(run_fanout(Driver::kSim, kEvents), threaded);
}

TEST(DriverConformance, MicrostepTraceIdenticalAcrossDrivers) {
  const RunDigests threaded = run_microstep(Driver::kThreaded, kEvents);
  EXPECT_EQ(threaded.reactions, 8u * kEvents + 1);  // kick + on_a + on_b + 6 sinks
  EXPECT_EQ(run_microstep(Driver::kSim, kEvents), threaded);
}

TEST(DriverConformance, PlanConsumingRunBitIdenticalToDerivedRun) {
  const RunDigests reference = run_pipeline(Driver::kThreaded, kEvents);
  EXPECT_EQ(run_pipeline(Driver::kThreaded, kEvents, /*consume_plan=*/true), reference);
  EXPECT_EQ(run_pipeline(Driver::kSim, kEvents, /*consume_plan=*/true), reference);
}

TEST(DriverConformance, RepeatedThreadedRunsIdentical) {
  const RunDigests first = run_fanout(Driver::kThreaded, kEvents);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(run_fanout(Driver::kThreaded, kEvents), first);
  }
}

/// Parameter: how many environments run at the same time, one per thread.
class ParallelConformanceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelConformanceTest, PipelineTraceBitIdenticalToSerial) {
  const RunDigests serial = run_pipeline(Driver::kThreaded, kEvents);
  for (const RunDigests& copy :
       run_concurrently(GetParam(), [](Driver driver) { return run_pipeline(driver, kEvents); })) {
    EXPECT_EQ(copy, serial);
  }
}

TEST_P(ParallelConformanceTest, FanoutTraceBitIdenticalToSerial) {
  const RunDigests serial = run_fanout(Driver::kThreaded, kEvents);
  for (const RunDigests& copy :
       run_concurrently(GetParam(), [](Driver driver) { return run_fanout(driver, kEvents); })) {
    EXPECT_EQ(copy, serial);
  }
}

TEST_P(ParallelConformanceTest, MicrostepTraceBitIdenticalToSerial) {
  const RunDigests serial = run_microstep(Driver::kThreaded, kEvents);
  for (const RunDigests& copy :
       run_concurrently(GetParam(), [](Driver driver) { return run_microstep(driver, kEvents); })) {
    EXPECT_EQ(copy, serial);
  }
}

TEST_P(ParallelConformanceTest, PlanConsumingRunBitIdenticalToDerivedRun) {
  const RunDigests derived = run_pipeline(Driver::kThreaded, kEvents);
  for (const RunDigests& copy : run_concurrently(GetParam(), [](Driver driver) {
         return run_pipeline(driver, kEvents, /*consume_plan=*/true);
       })) {
    EXPECT_EQ(copy, derived);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, ParallelConformanceTest, ::testing::Values(2u, 4u));

}  // namespace
}  // namespace dear::reactor
