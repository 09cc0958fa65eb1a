#include "brake/dear_pipeline.hpp"

#include <gtest/gtest.h>

#include "dear/app_builder.hpp"
#include "ft/fault_model.hpp"
#include "obs/obs.hpp"
#include "scenario/spec.hpp"

namespace dear::brake {
namespace {

using namespace dear::literals;

DearScenarioConfig small_scenario(std::uint64_t platform_seed, std::uint64_t sensor_seed = 5000,
                                  std::uint64_t frames = 2000) {
  DearScenarioConfig config;
  config.frames = frames;
  config.platform_seed = platform_seed;
  config.sensor_seed = sensor_seed;
  return config;
}

TEST(DearPipeline, ZeroErrorsAtPaperDeadlines) {
  const auto result = run_dear_pipeline(small_scenario(1));
  EXPECT_EQ(result.frames_sent, 2000u);
  EXPECT_EQ(result.frames_processed_eba, 2000u) << "every frame must be processed";
  EXPECT_EQ(result.errors.total(), 0u);
  EXPECT_EQ(result.deadline_violations, 0u);
  EXPECT_EQ(result.tardy_messages, 0u);
  EXPECT_EQ(result.wrong_decisions, 0u);
}

TEST(DearPipeline, EndToEndLatencyIsConstant) {
  // Tags advance by exactly D_adapter + L + D_pre + L + D_cv + L =
  // 5+5+25+5+25+5 = 70 ms from adapter arrival to EBA execution, and the
  // scheduler never fires early — so the latency is deterministic.
  const auto result = run_dear_pipeline(small_scenario(2));
  ASSERT_GT(result.latency.count(), 0u);
  EXPECT_DOUBLE_EQ(result.latency.min(), static_cast<double>(70_ms));
  EXPECT_DOUBLE_EQ(result.latency.max(), static_cast<double>(70_ms));
}

TEST(DearPipeline, DeadlineScaleShrinksLatency) {
  auto config = small_scenario(2);
  config.deadline_scale = 0.8;   // 4/20/20/4 ms deadlines
  config.exec_time_scale = 0.5;  // keep execution within the new deadlines
  const auto result = run_dear_pipeline(config);
  EXPECT_EQ(result.errors.total(), 0u);
  ASSERT_GT(result.latency.count(), 0u);
  // Adapter 4 + L 5 + preprocessing 20 + L 5 + CV 20 + L 5 = 59 ms.
  EXPECT_DOUBLE_EQ(result.latency.max(), static_cast<double>(59_ms));
}

TEST(DearPipeline, OutputsMatchReferenceDecisions) {
  const auto result = run_dear_pipeline(small_scenario(3));
  EXPECT_EQ(result.wrong_decisions, 0u);
  EXPECT_GT(result.brake_commands, 0u);  // the workload triggers some braking
  EXPECT_LT(result.brake_commands, result.frames_processed_eba);
}

TEST(DearPipeline, DeterministicAcrossPlatformTiming) {
  // THE determinism claim: same camera input, different platform timing
  // (scheduling jitter, network latency draws, execution time draws) —
  // identical observable behavior, including logical tags.
  const auto reference = run_dear_pipeline(small_scenario(1, 5000));
  for (std::uint64_t platform_seed = 2; platform_seed <= 5; ++platform_seed) {
    const auto result = run_dear_pipeline(small_scenario(platform_seed, 5000));
    EXPECT_EQ(result.output_digest, reference.output_digest)
        << "platform seed " << platform_seed << " changed observable behavior";
    EXPECT_EQ(result.tag_digest, reference.tag_digest)
        << "platform seed " << platform_seed << " changed logical tags";
    EXPECT_EQ(result.frames_processed_eba, reference.frames_processed_eba);
    EXPECT_EQ(result.errors.total(), 0u);
  }
}

TEST(DearPipeline, CameraTimingDoesNotAffectRelativeBehavior) {
  const auto a = run_dear_pipeline(small_scenario(1, 5000));
  const auto b = run_dear_pipeline(small_scenario(1, 6000));
  // Different camera timing shifts the absolute arrival tags, but the
  // values and the relative logical positions are identical.
  EXPECT_EQ(a.output_digest, b.output_digest);
  EXPECT_EQ(a.tag_digest, b.tag_digest);
}

TEST(DearPipeline, TightDeadlinesProduceObservableErrors) {
  // "For certain applications it is acceptable to deliberately introduce
  // the possibility of sporadic errors by setting deadlines to values
  // lower than the actual WCET" (paper §IV.B). Scale 0.4: preprocessing
  // deadline 10 ms < its 8-20 ms execution time.
  auto config = small_scenario(1);
  config.deadline_scale = 0.4;
  const auto result = run_dear_pipeline(config);
  EXPECT_GT(result.deadline_violations, 0u);
  EXPECT_GT(result.errors.total(), 0u);
  EXPECT_LT(result.frames_processed_eba, result.frames_sent);
}

TEST(DearPipeline, OverloadedExecutionProducesObservableErrors) {
  // Execution times inflated past the deadlines: violations, not silent
  // misbehavior.
  auto config = small_scenario(1);
  config.exec_time_scale = 2.0;  // preprocessing/CV now 16-40 ms vs 25 ms deadline
  const auto result = run_dear_pipeline(config);
  EXPECT_GT(result.deadline_violations, 0u);
}

/// Property sweep: the zero-error guarantee holds for every seed pair.
class DearSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DearSeedSweep, ZeroErrorsEveryFrameProcessed) {
  const auto result = run_dear_pipeline(small_scenario(GetParam(), GetParam() * 31 + 7, 1000));
  EXPECT_EQ(result.errors.total(), 0u);
  EXPECT_EQ(result.deadline_violations, 0u);
  EXPECT_EQ(result.tardy_messages, 0u);
  EXPECT_EQ(result.wrong_decisions, 0u);
  EXPECT_EQ(result.frames_processed_eba, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DearSeedSweep, ::testing::Range<std::uint64_t>(1, 13));

TEST(DearPipeline, LocalTransportProcessesEveryFrameWithoutErrors) {
  // The zero-copy in-process deployment must preserve the pipeline's
  // correctness guarantees: every frame processed, decisions match the
  // reference, no protocol errors.
  auto config = small_scenario(1);
  config.transport = scenario::Transport::kLocal;
  const auto result = run_dear_pipeline(config);
  EXPECT_EQ(result.frames_sent, 2000u);
  EXPECT_EQ(result.frames_processed_eba, 2000u);
  EXPECT_EQ(result.errors.total(), 0u);
  EXPECT_EQ(result.wrong_decisions, 0u);
}

TEST(DearPipeline, LocalTransportIsDeterministicAcrossPlatformTiming) {
  auto reference_config = small_scenario(1, 5000);
  reference_config.transport = scenario::Transport::kLocal;
  const auto reference = run_dear_pipeline(reference_config);
  for (std::uint64_t platform_seed = 2; platform_seed <= 4; ++platform_seed) {
    auto config = small_scenario(platform_seed, 5000);
    config.transport = scenario::Transport::kLocal;
    const auto result = run_dear_pipeline(config);
    EXPECT_EQ(result.output_digest, reference.output_digest);
    EXPECT_EQ(result.tag_digest, reference.tag_digest);
  }
}

TEST(DearPipeline, LocalTransportMatchesSomeIpObservableBehavior) {
  // Transport choice is a deployment decision, not a semantic one: the
  // DEAR pipeline's observable outputs (values AND logical tags) are
  // identical whether inter-SWC messages travel over SOME/IP or through
  // process memory — determinism makes backends interchangeable.
  const auto someip = run_dear_pipeline(small_scenario(1, 5000));
  auto local_config = small_scenario(1, 5000);
  local_config.transport = scenario::Transport::kLocal;
  const auto local = run_dear_pipeline(local_config);
  EXPECT_EQ(local.output_digest, someip.output_digest);
  EXPECT_EQ(local.tag_digest, someip.tag_digest);
  EXPECT_EQ(local.frames_processed_eba, someip.frames_processed_eba);
}

TEST(DearPipeline, AnchorDigestHoldsOnBothTransports) {
  // Golden anchor of the DEAR pipeline (300 frames, platform seed 7,
  // sensor seed 1007): one output digest, whichever transport carries it,
  // and whatever runs beside the tagged control plane — metrics and spans,
  // an inert fault plan on every node, or 1 MiB camera bursts on the
  // payload plane.
  constexpr std::uint64_t kDearDigest300f7 = 0xe4eb73d5ff217bdeULL;
  for (const auto transport : {scenario::Transport::kSomeIp, scenario::Transport::kLocal}) {
    const std::string_view name = scenario::to_string(transport);
    auto config = small_scenario(7, 1007, 300);
    config.transport = transport;
    EXPECT_EQ(run_dear_pipeline(config).output_digest, kDearDigest300f7) << name;

    {
      auto& registry = obs::Registry::instance();
      const bool metrics_were_enabled = obs::Registry::metrics_enabled();
      const std::uint32_t span_mask = obs::Registry::span_mask();
      const std::uint64_t events_before = registry.counter_total(obs::Counter::kSimEventsProcessed);
      registry.set_metrics_enabled(true);
      registry.set_span_mask(obs::kDefaultSpanMask);
      const std::uint64_t digest = run_dear_pipeline(config).output_digest;
      const std::uint64_t events_recorded =
          registry.counter_total(obs::Counter::kSimEventsProcessed) - events_before;
      registry.set_metrics_enabled(metrics_were_enabled);
      registry.set_span_mask(span_mask);
      registry.reset();
      EXPECT_EQ(digest, kDearDigest300f7) << name << " with metrics and spans live";
      EXPECT_GT(events_recorded, 0u) << name << ": the registry recorded nothing";
    }

    {
      // The real victim (computer vision), an empty crash window and zero
      // call-fault probabilities: every send and receive takes the
      // plan-installed branch and injects nothing.
      ft::FaultPlan idle_plan;
      auto idle_config = config;
      idle_config.preflight = [&idle_plan](AppBuilder& app) {
        for (const auto& node : app.nodes()) {
          if (node->name() == "cv") {
            idle_plan.victim = node->runtime().endpoint();
          }
          node->runtime().set_fault_plan(&idle_plan);
        }
      };
      EXPECT_EQ(run_dear_pipeline(idle_config).output_digest, kDearDigest300f7)
          << name << " with an inert fault plan";
      EXPECT_NE(idle_plan.victim, net::Endpoint{}) << name << ": preflight found no cv node";
    }

    {
      auto payload_config = config;
      payload_config.camera_payload_bytes = 1024u * 1024u;
      const auto result = run_dear_pipeline(payload_config);
      EXPECT_EQ(result.output_digest, kDearDigest300f7) << name << " with 1 MiB camera bursts";
      EXPECT_EQ(result.camera_payload_frames, 300u) << name;
      EXPECT_EQ(result.camera_payload_drops, 0u) << name;
    }
  }
}

TEST(DearPipeline, ErrorsRemainDeterministicUnderSameSeeds) {
  auto config = small_scenario(9);
  config.deadline_scale = 0.4;
  const auto a = run_dear_pipeline(config);
  const auto b = run_dear_pipeline(config);
  EXPECT_EQ(a.deadline_violations, b.deadline_violations);
  EXPECT_EQ(a.errors.total(), b.errors.total());
  EXPECT_EQ(a.output_digest, b.output_digest);
}

}  // namespace
}  // namespace dear::brake
