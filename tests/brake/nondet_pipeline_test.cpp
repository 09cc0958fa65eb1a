#include "brake/nondet_pipeline.hpp"

#include <gtest/gtest.h>

#include <set>

#include "brake/det_client_pipeline.hpp"

namespace dear::brake {
namespace {

ScenarioConfig small_scenario(std::uint64_t seed, std::uint64_t frames = 3000) {
  ScenarioConfig config;
  config.frames = frames;
  config.platform_seed = seed;
  config.sensor_seed = seed + 1000;
  return config;
}

TEST(NondetPipeline, FramesFlowEndToEnd) {
  const auto result = run_nondet_pipeline(small_scenario(3));
  EXPECT_EQ(result.frames_sent, 3000u);
  // Most frames reach EBA (minus drops and the pipeline tail).
  EXPECT_GT(result.frames_processed_eba, 2500u);
  EXPECT_LE(result.frames_processed_eba, result.frames_sent);
  // The decisions taken match the reference logic whenever inputs align.
  EXPECT_LT(result.wrong_decisions, result.frames_processed_eba / 10);
}

TEST(NondetPipeline, SameSeedsReproduceExactly) {
  const auto a = run_nondet_pipeline(small_scenario(7));
  const auto b = run_nondet_pipeline(small_scenario(7));
  EXPECT_EQ(a.errors.total(), b.errors.total());
  EXPECT_EQ(a.errors.dropped_frames_preprocessing, b.errors.dropped_frames_preprocessing);
  EXPECT_EQ(a.errors.dropped_frames_cv, b.errors.dropped_frames_cv);
  EXPECT_EQ(a.errors.input_mismatches_cv, b.errors.input_mismatches_cv);
  EXPECT_EQ(a.errors.dropped_vehicles_eba, b.errors.dropped_vehicles_eba);
  EXPECT_EQ(a.output_digest, b.output_digest);
  EXPECT_EQ(a.frames_processed_eba, b.frames_processed_eba);
}

TEST(NondetPipeline, ErrorRateVariesAcrossSeeds) {
  // The paper's Figure 5 point: the error rate is "strongly influenced by
  // the offset between the individual periodic callbacks", which varies
  // across experiment instances.
  std::set<std::uint64_t> totals;
  double min_rate = 1e9;
  double max_rate = -1.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto result = run_nondet_pipeline(small_scenario(seed));
    totals.insert(result.errors.total());
    min_rate = std::min(min_rate, result.error_prevalence_percent());
    max_rate = std::max(max_rate, result.error_prevalence_percent());
  }
  EXPECT_GT(totals.size(), 3u) << "error counts should differ across instances";
  EXPECT_GT(max_rate, 10.0 * std::max(min_rate, 0.001)) << "orders-of-magnitude spread expected";
}

TEST(NondetPipeline, SomeSeedExhibitsErrors) {
  // At least one of the first seeds shows a non-trivial error rate.
  bool errors_seen = false;
  for (std::uint64_t seed = 1; seed <= 8 && !errors_seen; ++seed) {
    errors_seen = run_nondet_pipeline(small_scenario(seed)).errors.total() > 10;
  }
  EXPECT_TRUE(errors_seen);
}

TEST(NondetPipeline, MisalignmentCausesWrongDecisions) {
  // Find a seed with CV input mismatches and confirm they translate into
  // brake decisions that differ from the reference pipeline — the paper's
  // safety argument.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto result = run_nondet_pipeline(small_scenario(seed));
    if (result.errors.input_mismatches_cv > 20) {
      EXPECT_GT(result.wrong_decisions, 0u)
          << "mismatched inputs must eventually corrupt decisions";
      return;
    }
  }
  GTEST_SKIP() << "no high-mismatch seed in range (distribution shifted)";
}

TEST(NondetPipeline, GoldenOutputAtDefaults) {
  // Golden run of the stock-APD baseline at its default timing (300
  // frames, platform seed 8, sensor seed 1008: a seed whose run shows
  // three of the four Figure 5 error classes), for the plain pipeline and
  // its DeterministicClient variant. The output digest and the error
  // columns are a pure function of the seeds, so any change to the
  // callback, dispatch, drift, camera or link timing shows here.
  struct Golden {
    const char* name;
    PipelineResult (*run)(const ScenarioConfig&);
    std::uint64_t output_digest;
    ErrorCounters errors;
    std::uint64_t frames_processed_eba;
    std::uint64_t wrong_decisions;
  };
  const Golden cases[] = {
      {"nondet", [](const ScenarioConfig& c) { return run_nondet_pipeline(c); },
       0x32c17a9d3b77a5b8ULL, {1, 152, 41, 0}, 187, 11},
      {"det-client", [](const ScenarioConfig& c) { return run_det_client_pipeline(c); },
       0xa0cd8cdfdfed4d74ULL, {3, 160, 38, 0}, 180, 14},
  };
  ScenarioConfig config;
  config.frames = 300;
  config.platform_seed = 8;
  config.sensor_seed = 1008;
  for (const Golden& golden : cases) {
    const PipelineResult result = golden.run(config);
    EXPECT_EQ(result.frames_sent, 300u) << golden.name;
    EXPECT_EQ(result.output_digest, golden.output_digest) << golden.name;
    EXPECT_EQ(result.errors.dropped_frames_preprocessing,
              golden.errors.dropped_frames_preprocessing)
        << golden.name;
    EXPECT_EQ(result.errors.dropped_frames_cv, golden.errors.dropped_frames_cv) << golden.name;
    EXPECT_EQ(result.errors.input_mismatches_cv, golden.errors.input_mismatches_cv)
        << golden.name;
    EXPECT_EQ(result.errors.dropped_vehicles_eba, golden.errors.dropped_vehicles_eba)
        << golden.name;
    EXPECT_EQ(result.frames_processed_eba, golden.frames_processed_eba) << golden.name;
    EXPECT_EQ(result.wrong_decisions, golden.wrong_decisions) << golden.name;
  }
}

TEST(DetClientPipeline, IntraSwcDeterminismDoesNotFixCoordination) {
  // The AP deterministic client addresses only nondeterminism source 1;
  // the buffer races between SWCs persist (paper §II.B).
  std::uint64_t nondet_total = 0;
  std::uint64_t detclient_total = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    nondet_total += run_nondet_pipeline(small_scenario(seed)).errors.total();
    detclient_total += run_det_client_pipeline(small_scenario(seed)).errors.total();
  }
  EXPECT_GT(nondet_total, 0u);
  EXPECT_GT(detclient_total, 0u) << "deterministic client must not fix inter-SWC errors";
}

TEST(DetClientPipeline, ReproducibleUnderSameSeed) {
  const auto a = run_det_client_pipeline(small_scenario(4));
  const auto b = run_det_client_pipeline(small_scenario(4));
  EXPECT_EQ(a.errors.total(), b.errors.total());
  EXPECT_EQ(a.output_digest, b.output_digest);
}

}  // namespace
}  // namespace dear::brake
