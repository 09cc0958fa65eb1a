// The determinism property: a reactor program without physical actions
// produces exactly the same execution trace — (tag, reaction) sequence —
// on every run, under both drivers, and while other environments run the
// same program on other threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "reactor_fixture.hpp"

namespace dear::reactor {
namespace {

using namespace dear::literals;
using testing::Counter;
using testing::Doubler;
using testing::Recorder;

/// Builds a small but nontrivial program: two timer sources at different
/// rates, a shared transform stage, a fan-in consumer with state.
struct Program {
  explicit Program(Environment& env)
      : fast(env, 2_ms, 20, "fast"),
        slow(env, 5_ms, 8, "slow"),
        doubler(env),
        fast_sink(env, "fast_sink"),
        slow_sink(env, "slow_sink") {
    env.connect(fast.out, doubler.in);
    env.connect(doubler.out, fast_sink.in);
    env.connect(slow.out, slow_sink.in);
  }

  Counter fast;
  Counter slow;
  Doubler doubler;
  Recorder<int> fast_sink;
  Recorder<int> slow_sink;
};

/// Normalizes a trace for comparison: tags become relative to the start
/// tag, and records within one tag are sorted by name — reactions on the
/// same level are semantically unordered, so their recording order is not
/// part of the observable behavior (driver_conformance_test.cpp pins the
/// raw order).
[[nodiscard]] std::string normalize_trace(const Environment& env, const Trace& trace,
                                          TimePoint start) {
  (void)env;
  std::vector<std::pair<Tag, std::string>> records;
  for (const TraceRecord& record : trace.records()) {
    records.emplace_back(Tag{record.tag.time - start, record.tag.microstep}, record.reaction);
  }
  std::sort(records.begin(), records.end());
  std::string normalized;
  for (const auto& [tag, name] : records) {
    normalized += tag.to_string() + " " + name + "\n";
  }
  return normalized;
}

[[nodiscard]] std::string threaded_trace() {
  RealClock clock;
  Environment::Config config;
  config.tracing = true;
  Environment env(clock, config);
  Program program(env);
  env.run();
  return normalize_trace(env, env.trace(), env.start_time());
}

/// Parameter: how many environments run the program at the same time, one
/// per thread.
class WorkerCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WorkerCountTest, TraceIndependentOfWorkerCount) {
  const std::string reference = threaded_trace();
  std::vector<std::string> traces(GetParam());
  std::vector<std::thread> workers;
  workers.reserve(traces.size());
  for (std::string& trace : traces) {
    workers.emplace_back([&trace] { trace = threaded_trace(); });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (const std::string& trace : traces) {
    EXPECT_EQ(trace, reference) << "concurrent environments changed observable behavior";
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountTest, ::testing::Values(1u, 2u, 4u, 8u));

TEST(Determinism, RepeatedThreadedRunsIdentical) {
  const std::string first = threaded_trace();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(threaded_trace(), first);
  }
}

[[nodiscard]] std::string sim_trace() {
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment::Config config;
  config.tracing = true;
  Environment env(clock, config);
  Program program(env);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(10_s);
  return normalize_trace(env, env.trace(), env.start_time());
}

TEST(Determinism, SimAndThreadedTracesAgree) {
  // The same logical program must behave identically under the DES driver
  // and the threaded scheduler.
  EXPECT_EQ(sim_trace(), threaded_trace());
}

TEST(Determinism, RecorderValuesIdenticalAcrossRuns) {
  auto run_values = [] {
    RealClock clock;
    Environment env(clock);
    Program program(env);
    env.run();
    std::vector<int> values;
    for (const auto& entry : program.fast_sink.entries) {
      values.push_back(entry.value);
    }
    for (const auto& entry : program.slow_sink.entries) {
      values.push_back(entry.value);
    }
    return values;
  };
  const auto reference = run_values();
  // slow reaches its limit first (at 35 ms) and shuts the program down:
  // fast emitted 18 values (0..34 ms) + slow's 8.
  EXPECT_EQ(reference.size(), 26u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(run_values(), reference);
  }
}

TEST(Determinism, TraceRecordsDeadlineViolations) {
  sim::Kernel kernel;
  SimClock clock(kernel);
  Environment::Config config;
  config.tracing = true;
  Environment env(clock, config);
  class Violator final : public Reactor {
   public:
    Output<int> out{"out", this};
    explicit Violator(Environment& env) : Reactor("violator", env), timer_("t", this, 10_ms) {
      add_reaction("produce",
                   [this] {
                     out.set(1);
                     request_shutdown();
                   })
          .triggered_by(timer_)
          .writes(out)
          .set_modeled_cost(sim::ExecTimeModel::constant(5_ms));
    }

   private:
    Timer timer_;
  };
  class Sink final : public Reactor {
   public:
    Input<int> in{"in", this};
    explicit Sink(Environment& env) : Reactor("sink", env) {
      add_reaction("consume", [] {}).triggered_by(in).with_deadline(1_ms, [] {});
    }
  };
  Violator violator(env);
  Sink sink(env);
  env.connect(violator.out, sink.in);
  SimDriver driver(env, kernel, common::Rng(1));
  driver.start();
  kernel.run_until(1_s);
  bool violation_recorded = false;
  for (const TraceRecord& record : env.trace().records()) {
    if (record.deadline_violated) {
      violation_recorded = true;
      EXPECT_EQ(record.reaction, "sink.consume");
    }
  }
  EXPECT_TRUE(violation_recorded);
}

}  // namespace
}  // namespace dear::reactor
