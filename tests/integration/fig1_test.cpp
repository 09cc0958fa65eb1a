// The Figure 1 experiment as an integration test.
#include "demo/fig1.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dear::demo {
namespace {

TEST(Fig1Nondet, SimOutcomesSpanMultipleValues) {
  std::set<std::int32_t> outcomes;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Fig1Outcome outcome = run_fig1_nondet_sim(seed);
    ASSERT_TRUE(outcome.completed) << "seed " << seed;
    ASSERT_GE(outcome.printed, 0);
    ASSERT_LE(outcome.printed, 3);
    outcomes.insert(outcome.printed);
  }
  // The paper's histogram: all four results {0,1,2,3} occur.
  EXPECT_EQ(outcomes.size(), 4u);
}

TEST(Fig1Nondet, SimIsSeedReproducible) {
  for (std::uint64_t seed : {1ULL, 17ULL, 99ULL}) {
    EXPECT_EQ(run_fig1_nondet_sim(seed).printed, run_fig1_nondet_sim(seed).printed);
  }
}

TEST(Fig1Nondet, RealThreadsTrialsComplete) {
  Fig1RealHarness harness(4);
  for (int i = 0; i < 50; ++i) {
    const Fig1Outcome outcome = harness.run_trial();
    ASSERT_TRUE(outcome.completed);
    ASSERT_GE(outcome.printed, 0);
    ASSERT_LE(outcome.printed, 3);
  }
}

TEST(Fig1Dear, SimAlwaysPrintsThree) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const Fig1Outcome outcome = run_fig1_dear_sim(seed);
    ASSERT_TRUE(outcome.completed) << "seed " << seed;
    EXPECT_EQ(outcome.printed, 3) << "seed " << seed;
    EXPECT_EQ(outcome.protocol_errors, 0u) << "seed " << seed;
  }
}

/// The DEAR guarantee for one real-time trial. The paper promises
/// determinism only while deadlines hold, and a real-time trial can miss
/// the server's 10 ms deadline under OS preemption, after which the 2 s
/// watchdog may end it. So a trial holds if it prints 3 on completion, or
/// if it reports the protocol error (deadline miss, tardy message) that
/// voids the guarantee. A wrong value or an unfinished trial with zero
/// protocol errors is a silent failure and never holds.
bool dear_trial_holds(const Fig1Outcome& outcome) {
  if (outcome.protocol_errors > 0) {
    return true;
  }
  return outcome.completed && outcome.printed == 3;
}

TEST(Fig1Dear, TrialPredicateRejectsSilentFailures) {
  EXPECT_TRUE(dear_trial_holds({.printed = 3, .completed = true, .protocol_errors = 0}));
  // A reported deadline miss excuses a wrong value or an unfinished trial.
  EXPECT_TRUE(dear_trial_holds({.printed = 2, .completed = true, .protocol_errors = 1}));
  EXPECT_TRUE(dear_trial_holds({.printed = -1, .completed = false, .protocol_errors = 1}));
  // Without one, it does not.
  EXPECT_FALSE(dear_trial_holds({.printed = 2, .completed = true, .protocol_errors = 0}));
  EXPECT_FALSE(dear_trial_holds({.printed = 0, .completed = true, .protocol_errors = 0}));
  EXPECT_FALSE(dear_trial_holds({.printed = -1, .completed = false, .protocol_errors = 0}));
  EXPECT_FALSE(dear_trial_holds({.printed = 3, .completed = false, .protocol_errors = 0}));
}

TEST(Fig1Dear, ThreadedAlwaysPrintsThree) {
  int excused = 0;
  for (int i = 0; i < 5; ++i) {
    const Fig1Outcome outcome = run_fig1_dear_threaded(4);
    EXPECT_TRUE(dear_trial_holds(outcome))
        << "trial " << i << " printed " << outcome.printed << " (completed "
        << outcome.completed << ") with no protocol error reported";
    if (outcome.protocol_errors > 0) {
      ++excused;
    }
  }
  RecordProperty("trials_with_reported_protocol_errors", excused);
}

}  // namespace
}  // namespace dear::demo
