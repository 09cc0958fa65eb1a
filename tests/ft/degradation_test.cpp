// Graceful degradation under injected service crashes: the health
// supervisor marks the victim dead at well-defined logical tags, the
// degraded-mode controllers engage (EBA holds the last safe command, ACC
// coasts), and every observable — including the fallback outputs, which
// enter the digests under a marker id — stays bit-identical across
// transports and platform seeds.
#include <gtest/gtest.h>

#include "acc/pipeline.hpp"
#include "ara/com/transport_binding.hpp"
#include "brake/dear_pipeline.hpp"
#include "dear/app_builder.hpp"
#include "ft/health.hpp"

namespace dear {
namespace {

using namespace dear::literals;

// crash_at counts from sensor sample 0's nominal release, and the
// boundaries sit mid-frame (the pipelines sample at 50 ms): sensor tags
// carry sub-millisecond jitter, so a boundary on the cadence itself
// would razor-cut a jitter cloud.
brake::DearScenarioConfig crashed_brake(bool local_transport, Duration restart_after = 0) {
  brake::DearScenarioConfig config;
  config.frames = 60;
  config.sensor_seed = 31;
  config.platform_seed = 32;
  config.transport = local_transport ? scenario::Transport::kLocal : scenario::Transport::kSomeIp;
  config.service_faults.crash_at = 1025_ms;
  config.service_faults.restart_after = restart_after;
  return config;
}

acc::AccScenarioConfig crashed_acc(bool local_transport, Duration restart_after = 0) {
  acc::AccScenarioConfig config;
  config.frames = 60;
  config.sensor_seed = 41;
  config.platform_seed = 42;
  config.transport = local_transport ? scenario::Transport::kLocal : scenario::Transport::kSomeIp;
  config.service_faults.crash_at = 1025_ms;
  config.service_faults.restart_after = restart_after;
  return config;
}

TEST(FtDegradation, BrakeCrashEngagesHoldFallback) {
  const brake::PipelineResult result = brake::run_dear_pipeline(crashed_brake(false));
  EXPECT_GT(result.ft.crash_drops, 0u) << "the CV node's tagged traffic must stop";
  EXPECT_GE(result.ft.failovers, 1u) << "the supervisor must mark the CV service dead";
  EXPECT_GT(result.ft.degraded_ticks, 0u) << "the EBA must hold the last safe command";
}

TEST(FtDegradation, AccCrashEngagesCoastFallback) {
  const acc::AccResult result = acc::run_acc_pipeline(crashed_acc(false));
  EXPECT_GT(result.ft.crash_drops, 0u) << "the radar node's tagged traffic must stop";
  EXPECT_GE(result.ft.failovers, 1u);
  EXPECT_GT(result.ft.degraded_ticks, 0u) << "the ACC must coast while the radar is dead";
}

TEST(FtDegradation, BrakeDigestsMatchAcrossTransportsUnderCrash) {
  const brake::PipelineResult someip = brake::run_dear_pipeline(crashed_brake(false));
  const brake::PipelineResult local = brake::run_dear_pipeline(crashed_brake(true));
  EXPECT_EQ(someip.output_digest, local.output_digest);
  EXPECT_EQ(someip.ft.degraded_ticks, local.ft.degraded_ticks);
  EXPECT_EQ(someip.ft.failovers, local.ft.failovers);
  EXPECT_EQ(someip.ft.crash_drops, local.ft.crash_drops);
}

TEST(FtDegradation, AccDigestsMatchAcrossTransportsUnderCrash) {
  const acc::AccResult someip = acc::run_acc_pipeline(crashed_acc(false));
  const acc::AccResult local = acc::run_acc_pipeline(crashed_acc(true));
  EXPECT_EQ(someip.output_digest, local.output_digest);
  EXPECT_EQ(someip.ft.degraded_ticks, local.ft.degraded_ticks);
  EXPECT_EQ(someip.ft.failovers, local.ft.failovers);
  EXPECT_EQ(someip.ft.crash_drops, local.ft.crash_drops);
}

TEST(FtDegradation, BrakeDigestIsPlatformSeedInvariantUnderCrash) {
  brake::DearScenarioConfig a = crashed_brake(false);
  brake::DearScenarioConfig b = crashed_brake(false);
  b.platform_seed = a.platform_seed + 17;
  const brake::PipelineResult ra = brake::run_dear_pipeline(a);
  const brake::PipelineResult rb = brake::run_dear_pipeline(b);
  EXPECT_EQ(ra.output_digest, rb.output_digest)
      << "crash windows live in wire-tag time: platform timing must not matter";
  EXPECT_EQ(ra.ft.degraded_ticks, rb.ft.degraded_ticks);
}

TEST(FtDegradation, AccDigestIsPlatformSeedInvariantUnderCrash) {
  acc::AccScenarioConfig a = crashed_acc(false);
  acc::AccScenarioConfig b = crashed_acc(false);
  b.platform_seed = a.platform_seed + 17;
  const acc::AccResult ra = acc::run_acc_pipeline(a);
  const acc::AccResult rb = acc::run_acc_pipeline(b);
  EXPECT_EQ(ra.output_digest, rb.output_digest)
      << "the down window is anchored to the radar grid: platform timing must not matter";
  EXPECT_EQ(ra.ft.degraded_ticks, rb.ft.degraded_ticks);
  EXPECT_EQ(ra.ft.crash_drops, rb.ft.crash_drops);
}

TEST(FtDegradation, WarmRestartRecoversTheService) {
  const brake::PipelineResult dead_forever = brake::run_dear_pipeline(crashed_brake(false));
  const brake::PipelineResult restarted =
      brake::run_dear_pipeline(crashed_brake(false, /*restart_after=*/500_ms));
  EXPECT_GE(restarted.ft.failovers, 1u);
  EXPECT_GT(restarted.ft.degraded_ticks, 0u);
  EXPECT_LT(restarted.ft.degraded_ticks, dead_forever.ft.degraded_ticks)
      << "after the warm restart the supervisor recovers and the fallback disengages";
  EXPECT_LT(restarted.ft.crash_drops, dead_forever.ft.crash_drops);
}

TEST(FtDegradation, RunsAreBitReproducible) {
  const acc::AccResult first = acc::run_acc_pipeline(crashed_acc(false, 500_ms));
  const acc::AccResult again = acc::run_acc_pipeline(crashed_acc(false, 500_ms));
  EXPECT_EQ(first.output_digest, again.output_digest);
  EXPECT_EQ(first.tag_digest, again.tag_digest);
  EXPECT_EQ(first.ft.crash_drops, again.ft.crash_drops);
  EXPECT_EQ(first.ft.degraded_ticks, again.ft.degraded_ticks);
  EXPECT_EQ(first.ft.failovers, again.ft.failovers);
}

TEST(FtDegradation, CallFaultsAndRetriesSurfaceInAccCounters) {
  acc::AccScenarioConfig config;
  config.frames = 100;
  config.sensor_seed = 51;
  config.platform_seed = 52;
  config.service_faults.call_error_probability = 0.4;
  config.service_faults.call_omission_probability = 0.2;
  config.retry.max_attempts = 3;
  config.retry.backoff_base = 6_ms;
  config.retry.timeout = 5_ms;
  const acc::AccResult first = acc::run_acc_pipeline(config);
  EXPECT_GT(first.ft.call_faults, 0u) << "console get/set calls must hit the fault die";
  EXPECT_GT(first.ft.retries, 0u) << "the retry budget must re-issue failed calls";
  const acc::AccResult again = acc::run_acc_pipeline(config);
  EXPECT_EQ(first.output_digest, again.output_digest);
  EXPECT_EQ(first.ft.call_faults, again.ft.call_faults);
  EXPECT_EQ(first.ft.retries, again.ft.retries);
}

/// What the preflight hook sees of the fault-tolerance layer on a wired
/// (never started) app.
struct FtFootprint {
  std::size_t bindings{0};
  std::size_t bindings_with_plan{0};
  bool health_offered{false};
};

template <typename Config, typename Run>
FtFootprint footprint(Config config, Run run) {
  FtFootprint seen;
  config.build_only = true;
  config.preflight = [&seen](AppBuilder& app) {
    for (const auto& node : app.nodes()) {
      node->runtime().registry().for_each([&seen](ara::com::TransportBinding& binding) {
        ++seen.bindings;
        seen.bindings_with_plan += binding.fault_plan() != nullptr ? 1 : 0;
      });
    }
    seen.health_offered = app.nodes()
                              .front()
                              ->runtime()
                              .resolve({ft::kHealthService, ft::kHealthInstance})
                              .has_value();
  };
  (void)run(config);
  return seen;
}

TEST(FtDeployment, FaultFreeRunsInstallNoPlanAndNoHealthService) {
  for (const bool local : {false, true}) {
    brake::DearScenarioConfig brake_config = crashed_brake(local);
    brake_config.service_faults = {};
    acc::AccScenarioConfig acc_config = crashed_acc(local);
    acc_config.service_faults = {};
    for (const FtFootprint& seen : {footprint(brake_config, brake::run_dear_pipeline),
                                    footprint(acc_config, acc::run_acc_pipeline)}) {
      EXPECT_GT(seen.bindings, 0u);
      EXPECT_EQ(seen.bindings_with_plan, 0u) << (local ? "local" : "someip");
      EXPECT_FALSE(seen.health_offered) << (local ? "local" : "someip");
    }
  }
}

TEST(FtDeployment, FaultedRunsInstallThePlanOnEveryNode) {
  for (const bool local : {false, true}) {
    for (const FtFootprint& seen : {footprint(crashed_brake(local), brake::run_dear_pipeline),
                                    footprint(crashed_acc(local), acc::run_acc_pipeline)}) {
      // Five nodes; the local deployment attaches a second binding to each.
      EXPECT_EQ(seen.bindings, local ? 10u : 5u);
      EXPECT_EQ(seen.bindings_with_plan, seen.bindings) << (local ? "local" : "someip");
      EXPECT_TRUE(seen.health_offered) << (local ? "local" : "someip");
    }
  }
}

TEST(FtDegradation, SupervisorClassifiesByHeartbeatGap) {
  // Threshold sanity on the config type itself: the pipeline wiring
  // derives degraded/dead cutoffs from the pipeline period, and the
  // half-open comparisons in the supervisor use strict greater-than.
  ft::SupervisorConfig config;
  EXPECT_LT(config.check_period, config.degraded_after);
  EXPECT_LT(config.degraded_after, config.dead_after);
}

}  // namespace
}  // namespace dear
