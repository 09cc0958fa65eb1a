// The adaptive cruise-control chain: scenario-diversity proof for the
// descriptor API. Everything here runs through ServiceInterface
// descriptors + AppBuilder only — there is no handwritten service class in
// the entire chain — and must exhibit the same determinism guarantees as
// the brake assistant, over both transports.
#include "acc/pipeline.hpp"

#include <gtest/gtest.h>

#include "acc/logic.hpp"
#include "scenario/spec.hpp"

namespace dear::acc {
namespace {

AccScenarioConfig small_scenario(std::uint64_t platform_seed, std::uint64_t sensor_seed = 9000,
                                 std::uint64_t scans = 1000) {
  AccScenarioConfig config;
  config.frames = scans;
  config.platform_seed = platform_seed;
  config.sensor_seed = sensor_seed;
  return config;
}

TEST(AccLogicFunctions, DeterministicAndClamped) {
  const RadarScan scan = generate_scan(42, 123456);
  EXPECT_EQ(scan, generate_scan(42, 123456));
  const TrackList tracks = track_objects(scan);
  for (const Track& track : tracks.tracks) {
    EXPECT_GE(track.distance_m, 10.0);
  }
  const AccCommand fast = reference_command(42, 130.0);
  EXPECT_EQ(fast, reference_command(42, 130.0));
}

TEST(AccPipeline, ZeroErrorsEveryScanCommanded) {
  const auto result = run_acc_pipeline(small_scenario(1));
  EXPECT_EQ(result.scans_sent, 1000u);
  EXPECT_EQ(result.commands, 1000u) << "every scan must reach the actuator";
  EXPECT_EQ(result.wrong_commands, 0u);
  EXPECT_EQ(result.deadline_violations, 0u);
  EXPECT_EQ(result.tardy_messages, 0u);
  EXPECT_EQ(result.untagged_messages, 0u);
  EXPECT_EQ(result.remote_errors, 0u) << "field get/set calls must all succeed";
  EXPECT_GT(result.brake_interventions, 0u);  // the workload includes cut-ins
  EXPECT_LT(result.brake_interventions, result.commands);
}

TEST(AccPipeline, FieldTrafficFlowsThroughTheDescriptors) {
  // ~50 s horizon: the console polls every 500 ms and steps the set-point
  // every 2 s, all through the target_speed field's methods and event.
  const auto result = run_acc_pipeline(small_scenario(1));
  EXPECT_GT(result.field_gets, 50u);
  EXPECT_GT(result.field_sets, 10u);
  // Every accepted set produces a change notification.
  EXPECT_EQ(result.field_notifies, result.field_sets);
  EXPECT_NE(result.console_digest, 0u);
}

TEST(AccPipeline, DeterministicAcrossPlatformTiming) {
  // Same radar input, different platform timing — identical observable
  // behavior including logical tags and the console's field observations.
  const auto reference = run_acc_pipeline(small_scenario(1, 9000));
  for (std::uint64_t platform_seed = 2; platform_seed <= 5; ++platform_seed) {
    const auto result = run_acc_pipeline(small_scenario(platform_seed, 9000));
    EXPECT_EQ(result.output_digest, reference.output_digest)
        << "platform seed " << platform_seed << " changed observable behavior";
    EXPECT_EQ(result.tag_digest, reference.tag_digest)
        << "platform seed " << platform_seed << " changed logical tags";
    EXPECT_EQ(result.console_digest, reference.console_digest)
        << "platform seed " << platform_seed << " changed the field traffic";
    EXPECT_EQ(result.commands, reference.commands);
  }
}

TEST(AccPipeline, LocalTransportMatchesSomeIpObservableBehavior) {
  // Transport choice is a deployment decision: the descriptor-built chain
  // produces bit-identical outputs and logical tags whether it runs over
  // SOME/IP or through process memory.
  const auto someip = run_acc_pipeline(small_scenario(1, 9000));
  auto local_config = small_scenario(1, 9000);
  local_config.transport = scenario::Transport::kLocal;
  const auto local = run_acc_pipeline(local_config);
  EXPECT_EQ(local.output_digest, someip.output_digest);
  EXPECT_EQ(local.tag_digest, someip.tag_digest);
  EXPECT_EQ(local.console_digest, someip.console_digest);
  EXPECT_EQ(local.commands, someip.commands);
  EXPECT_EQ(local.total_errors(), 0u);
}

TEST(AccPipeline, LocalTransportIsDeterministicAcrossPlatformTiming) {
  auto reference_config = small_scenario(1, 9000);
  reference_config.transport = scenario::Transport::kLocal;
  const auto reference = run_acc_pipeline(reference_config);
  for (std::uint64_t platform_seed = 2; platform_seed <= 4; ++platform_seed) {
    auto config = small_scenario(platform_seed, 9000);
    config.transport = scenario::Transport::kLocal;
    const auto result = run_acc_pipeline(config);
    EXPECT_EQ(result.output_digest, reference.output_digest);
    EXPECT_EQ(result.tag_digest, reference.tag_digest);
    EXPECT_EQ(result.console_digest, reference.console_digest);
  }
}

TEST(AccPipeline, GoldenOutputAtDefaults) {
  // Golden run of the ACC chain at its default timing and deadlines (300
  // scans, platform seed 7, sensor seed 1007), on both transports: the
  // actuator commands, their logical tags and the console's field traffic.
  constexpr std::uint64_t kOutputDigest = 0xe31366a934e8b4dcULL;
  constexpr std::uint64_t kTagDigest = 0xf203621c64b4befaULL;
  constexpr std::uint64_t kConsoleDigest = 0xa12849efaaf7ded3ULL;
  for (const auto transport : {scenario::Transport::kSomeIp, scenario::Transport::kLocal}) {
    auto config = small_scenario(7, 1007, 300);
    config.transport = transport;
    const auto result = run_acc_pipeline(config);
    const std::string_view name = scenario::to_string(transport);
    EXPECT_EQ(result.commands, 300u) << name;
    EXPECT_EQ(result.total_errors(), 0u) << name;
    EXPECT_EQ(result.output_digest, kOutputDigest) << name;
    EXPECT_EQ(result.tag_digest, kTagDigest) << name;
    EXPECT_EQ(result.console_digest, kConsoleDigest) << name;
  }
}

TEST(AccPipeline, TightDeadlinesProduceObservableErrors) {
  auto config = small_scenario(1);
  config.deadline_scale = 0.2;  // tracker deadline 4 ms < its 4-15 ms cost
  const auto result = run_acc_pipeline(config);
  EXPECT_GT(result.deadline_violations, 0u);
  EXPECT_LT(result.commands, result.scans_sent);
}

TEST(AccPipeline, ErrorsRemainDeterministicUnderSameSeeds) {
  auto config = small_scenario(9);
  config.deadline_scale = 0.2;
  const auto a = run_acc_pipeline(config);
  const auto b = run_acc_pipeline(config);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.output_digest, b.output_digest);
  EXPECT_EQ(a.commands, b.commands);
}

}  // namespace
}  // namespace dear::acc
