// Cross-module integration: distributed DEAR pipelines with clock skew
// between platforms, and the full nondet-vs-DEAR contrast on identical
// workloads.
#include <gtest/gtest.h>

#include "brake/dear_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "sim/clock_model.hpp"

namespace dear {
namespace {

using namespace dear::literals;

TEST(EndToEnd, DearFixesTheExactWorkloadTheClassicPipelineBreaks) {
  // Same camera behavior, same platform randomness seeds: the classic
  // pipeline drops frames, the DEAR pipeline processes every single one.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    brake::ScenarioConfig classic;
    classic.frames = 2000;
    classic.platform_seed = seed;
    classic.sensor_seed = seed + 1000;

    brake::DearScenarioConfig dear_config;
    dear_config.frames = 2000;
    dear_config.platform_seed = seed;
    dear_config.sensor_seed = seed + 1000;

    const auto classic_result = brake::run_nondet_pipeline(classic);
    const auto dear_result = brake::run_dear_pipeline(dear_config);

    EXPECT_EQ(dear_result.errors.total(), 0u) << "seed " << seed;
    EXPECT_EQ(dear_result.frames_processed_eba, 2000u) << "seed " << seed;
    EXPECT_LE(classic_result.frames_processed_eba, 2000u);
  }
}

TEST(EndToEnd, ClockErrorBoundCoversSkewedPlatforms) {
  // With a nonzero clock error budget the pipeline still runs error-free
  // (the tags simply carry the extra E margin).
  brake::DearScenarioConfig config;
  config.frames = 1000;
  config.platform_seed = 11;
  config.sensor_seed = 12;
  config.clock_error_bound = 2_ms;
  const auto result = brake::run_dear_pipeline(config);
  EXPECT_EQ(result.errors.total(), 0u);
  EXPECT_EQ(result.frames_processed_eba, 1000u);
  // Latency grows by 2 ms per network hop (3 hops): 70 + 6 = 76 ms.
  EXPECT_DOUBLE_EQ(result.latency.max(), static_cast<double>(76_ms));
}

TEST(EndToEnd, LongRunStaysStable) {
  brake::DearScenarioConfig config;
  config.frames = 10'000;
  config.platform_seed = 21;
  config.sensor_seed = 22;
  const auto result = brake::run_dear_pipeline(config);
  EXPECT_EQ(result.frames_processed_eba, 10'000u);
  EXPECT_EQ(result.errors.total(), 0u);
}

TEST(EndToEnd, BrakeDecisionsAgreeBetweenPipelinesOnCleanFrames) {
  // When the classic pipeline happens to process a frame with aligned
  // inputs, its decision agrees with the (always correct) DEAR pipeline.
  brake::ScenarioConfig classic;
  classic.frames = 2000;
  classic.platform_seed = 3;  // a low-error seed
  classic.sensor_seed = 1003;
  const auto classic_result = brake::run_nondet_pipeline(classic);
  // All processed frames decided correctly (no mismatches at this seed).
  if (classic_result.errors.input_mismatches_cv == 0) {
    EXPECT_EQ(classic_result.wrong_decisions, 0u);
  }
}

}  // namespace
}  // namespace dear
