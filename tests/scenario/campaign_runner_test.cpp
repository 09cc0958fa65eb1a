// Campaign-scale reproduction of the paper's core contrast: the DEAR
// pipelines keep bit-identical logical digests across every bounded fault
// scenario, transport and worker count, while the nondet pipeline's error
// prevalence moves with the scenario knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/digest.hpp"

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"

namespace dear::scenario {
namespace {

using namespace dear::literals;

constexpr std::uint64_t kFrames = 300;

[[nodiscard]] CampaignRunner runner_with(std::size_t workers) {
  RunnerOptions options;
  options.workers = workers;
  return CampaignRunner(options);
}

TEST(CampaignRunner, DearDigestsIdenticalAcrossPlatformSeedsTransportsAndBoundedFaults) {
  // One digest group spanning: 3 platform-timing replicas x 2 transports
  // x duplication on/off x two latency ranges within L. 24 runs, one
  // admissible digest.
  CampaignSpec campaign;
  campaign.name = "dear-invariance";
  campaign.campaign_seed = 11;
  campaign.base.frames = kFrames;
  campaign.transports = {Transport::kSomeIp, Transport::kLocal};
  campaign.net_duplicate_probabilities = {0.0, 0.2};
  campaign.svc_latency_ranges = {{5_us, 50_us}, {100_us, 2_ms}};
  campaign.replicas = 3;

  const auto report = runner_with(2).run(campaign);
  ASSERT_EQ(report.results.size(), 24u);
  EXPECT_EQ(report.determinism_checked_runs, 24u);
  EXPECT_EQ(report.determinism_groups, 1u);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();

  const std::uint64_t reference = report.results.front().outcome.output_digest;
  for (const ScenarioResult& row : report.results) {
    EXPECT_EQ(row.outcome.output_digest, reference) << row.spec.name;
    EXPECT_EQ(row.outcome.samples_out, kFrames) << row.spec.name;
    EXPECT_EQ(row.outcome.total_errors(), 0u) << row.spec.name;
  }
}

TEST(CampaignRunner, AccChainJoinsTheSameInvariantMachinery) {
  CampaignSpec campaign;
  campaign.name = "acc-invariance";
  campaign.campaign_seed = 5;
  campaign.base.workload = Workload::kAcc;
  campaign.base.frames = 200;
  campaign.transports = {Transport::kSomeIp, Transport::kLocal};
  campaign.replicas = 3;

  const auto report = runner_with(2).run(campaign);
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(report.determinism_groups, 1u);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();
  for (const ScenarioResult& row : report.results) {
    EXPECT_GT(row.outcome.samples_out, 0u);
  }
}

TEST(CampaignRunner, NondetErrorPrevalenceVariesAcrossScenariosWhileDearStaysAtZero) {
  // The paper's contrast at campaign scale, from one grid.
  CampaignSpec campaign;
  campaign.name = "contrast";
  campaign.campaign_seed = 3;
  campaign.base.frames = kFrames;
  campaign.workloads = {Workload::kBrakeDear, Workload::kBrakeNondet};
  campaign.net_drop_probabilities = {0.0, 0.05};
  campaign.replicas = 4;

  const auto report = runner_with(2).run(campaign);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();

  const auto nondet = report.nondet_prevalence();
  ASSERT_EQ(nondet.count(), 8u);
  EXPECT_GT(nondet.max(), nondet.min())
      << "fault knobs must move the nondet pipeline's error prevalence";
  EXPECT_GT(nondet.max(), 0.0);

  for (const ScenarioResult& row : report.results) {
    if (row.spec.workload == Workload::kBrakeDear && row.spec.expect_deterministic()) {
      EXPECT_EQ(row.outcome.total_errors(), 0u) << row.spec.name;
      EXPECT_EQ(row.outcome.error_prevalence_percent(), 0.0) << row.spec.name;
    }
  }
}

TEST(CampaignRunner, LossyDearScenariosShowObservableErrorsNotViolations) {
  CampaignSpec campaign;
  campaign.campaign_seed = 9;
  campaign.base.frames = kFrames;
  campaign.base.net_drop_probability = 0.05;
  campaign.replicas = 4;

  const auto report = runner_with(2).run(campaign);
  // Drops violate the reliable-delivery assumption, so these runs carry no
  // digest expectation — but the losses must be *observable*.
  EXPECT_EQ(report.determinism_checked_runs, 0u);
  EXPECT_TRUE(report.invariants_ok());
  std::uint64_t observable = 0;
  for (const ScenarioResult& row : report.results) {
    observable += row.outcome.app_errors + row.outcome.protocol_errors;
    EXPECT_LE(row.outcome.samples_out, kFrames);
  }
  EXPECT_GT(observable, 0u);
}

TEST(CampaignRunner, SensorFaultsShiftTheInputButKeepEachGroupDeterministic) {
  sim::SensorFaultModel faulty;
  faulty.drop_probability = 0.05;
  faulty.stuck_probability = 0.05;
  faulty.noise_probability = 0.05;

  CampaignSpec campaign;
  campaign.campaign_seed = 13;
  campaign.base.frames = kFrames;
  campaign.sensor_fault_models = {sim::SensorFaultModel{}, faulty};
  campaign.replicas = 3;

  const auto report = runner_with(2).run(campaign);
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(report.determinism_groups, 2u);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();

  std::set<std::uint64_t> digests;
  for (const ScenarioResult& row : report.results) {
    digests.insert(row.outcome.output_digest);
    if (row.spec.sensor_faults.any()) {
      EXPECT_GT(row.outcome.sensor_faults_injected, 0u);
      // Input faults are shared by every platform seed of the group.
      EXPECT_EQ(row.outcome.sensor_faults_injected,
                report.results.back().outcome.sensor_faults_injected);
    }
  }
  EXPECT_EQ(digests.size(), 2u) << "two input streams, two digests";
}

TEST(CampaignRunner, ReportIsIndependentOfWorkerCount) {
  const auto campaign = presets::smoke(200, 17);
  const auto serial = runner_with(1).run(campaign);
  const auto parallel = runner_with(4).run(campaign);

  ASSERT_EQ(serial.results.size(), parallel.results.size());
  EXPECT_EQ(serial.report_digest(), parallel.report_digest());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].spec.name, parallel.results[i].spec.name);
    EXPECT_EQ(serial.results[i].outcome.output_digest,
              parallel.results[i].outcome.output_digest);
    EXPECT_EQ(serial.results[i].outcome.app_errors, parallel.results[i].outcome.app_errors);
  }
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

TEST(CampaignRunner, SmokePresetExpandsTo16CheckedScenarios) {
  const auto campaign = presets::smoke(100, 1);
  EXPECT_EQ(campaign.grid_size(), 16u);
  const auto report = runner_with(2).run(campaign);
  EXPECT_EQ(report.results.size(), 16u);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();
  EXPECT_GT(report.determinism_checked_runs, 0u);
}

TEST(CampaignRunner, FaultToleranceSmokePresetIsDigestStable) {
  const auto campaign = presets::fault_tolerance_smoke(100, 1);
  EXPECT_EQ(campaign.grid_size(), 16u);
  const auto serial = runner_with(1).run(campaign);
  const auto parallel = runner_with(4).run(campaign);
  EXPECT_TRUE(serial.invariants_ok()) << serial.to_table();
  EXPECT_GT(serial.determinism_checked_runs, 0u);
  EXPECT_EQ(serial.report_digest(), parallel.report_digest());

  // The faulted rows must actually exercise the subsystem.
  std::uint64_t crash_drops = 0;
  std::uint64_t degraded = 0;
  for (const ScenarioResult& row : serial.results) {
    crash_drops += row.outcome.ft.crash_drops;
    degraded += row.outcome.ft.degraded_ticks;
  }
  EXPECT_GT(crash_drops, 0u);
  EXPECT_GT(degraded, 0u);
}

TEST(CampaignRunner, FaultToleranceSweepPresetExpandsTo48) {
  const auto campaign = presets::fault_tolerance_sweep(100, 1);
  EXPECT_EQ(campaign.grid_size(), 48u);
  // Every scenario of the sweep expects determinism: crash windows are
  // wire-tag intervals, the call-fault die is keyed on logical identities.
  for (const ScenarioSpec& spec : campaign.expand()) {
    EXPECT_TRUE(spec.expect_deterministic()) << spec.describe();
  }
}

TEST(CampaignRunner, FaultToleranceSweepDigestIsPinned) {
  // Golden anchor of the 48-scenario FT sweep (120 frames, campaign seed
  // 1). A change means a fault decision, a crash window or a pipeline's
  // logical output moved; it must not depend on the worker count.
  constexpr std::uint64_t kFtSweepDigest120f1 = 0xfe0b62691b00faf4ULL;
  const auto campaign = presets::fault_tolerance_sweep(120, 1);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto report = runner_with(workers).run(campaign);
    EXPECT_TRUE(report.invariants_ok()) << report.to_table();
    EXPECT_EQ(report.report_digest(), kFtSweepDigest120f1) << workers << " worker(s)";
  }
}

TEST(CampaignRunner, FaultSweepDigestIsPinned) {
  // Golden anchor of the 96-scenario fault sweep over all apps and both
  // transports (120 frames, campaign seed 1); worker-count independent.
  constexpr std::uint64_t kFaultSweepDigest120f1 = 0x6b2d9413c9b8a160ULL;
  const auto campaign = presets::fault_sweep(120, 1);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const auto report = runner_with(workers).run(campaign);
    EXPECT_TRUE(report.invariants_ok()) << report.to_table();
    EXPECT_EQ(report.report_digest(), kFaultSweepDigest120f1) << workers << " worker(s)";
  }
}

TEST(CampaignRunner, CrashScenariosShareDigestsAcrossTransportsAndSeeds) {
  // crash_at counts from sensor sample 0's nominal release; the
  // mid-frame boundary (the pipelines sample at 50 ms) keeps it clear of
  // the jittered sensor-tag clouds, so the same frames die under every
  // platform seed and transport.
  ft::ServiceFaultModel crash;
  crash.crash_at = 1025_ms;
  crash.restart_after = 500_ms;

  CampaignSpec campaign;
  campaign.name = "ft-crash-invariance";
  campaign.campaign_seed = 19;
  campaign.base.frames = 60;
  campaign.transports = {Transport::kSomeIp, Transport::kLocal};
  campaign.service_fault_models = {crash};
  campaign.replicas = 3;

  const auto report = runner_with(2).run(campaign);
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(report.determinism_groups, 1u);
  EXPECT_TRUE(report.invariants_ok()) << report.to_table();
  const std::uint64_t reference = report.results.front().outcome.output_digest;
  for (const ScenarioResult& row : report.results) {
    EXPECT_EQ(row.outcome.output_digest, reference) << row.spec.name;
    EXPECT_GT(row.outcome.ft.crash_drops, 0u) << row.spec.name;
  }
}

TEST(CampaignRunner, ReportSerializesToJsonAndTable) {
  CampaignSpec campaign;
  campaign.campaign_seed = 2;
  campaign.base.frames = 100;
  campaign.replicas = 2;
  const auto report = runner_with(1).run(campaign);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"output_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"report_digest\""), std::string::npos);
  // Every scenario row made it into the JSON.
  std::size_t rows = 0;
  for (std::size_t pos = 0; (pos = json.find("\"index\":", pos)) != std::string::npos; ++pos) {
    ++rows;
  }
  EXPECT_EQ(rows, report.results.size());

  const std::string table = report.to_table();
  EXPECT_NE(table.find("report digest"), std::string::npos);
  EXPECT_NE(table.find("determinism"), std::string::npos);
}

/// Digest over the row columns report_digest() leaves out: the FT
/// counters, the injected sensor faults, the deadline violations and the
/// latency stats (rounded to the ns the JSON report prints).
[[nodiscard]] std::uint64_t unreported_columns_digest(const CampaignReport& report) {
  std::uint64_t digest = 0;
  for (const ScenarioResult& row : report.results) {
    const RunOutcome& o = row.outcome;
    for (const std::uint64_t value :
         {o.ft.crash_drops, o.ft.call_faults, o.ft.retries, o.ft.degraded_ticks, o.ft.failovers,
          o.sensor_faults_injected, o.deadline_violations,
          static_cast<std::uint64_t>(std::llround(o.latency_mean_ns)),
          static_cast<std::uint64_t>(std::llround(o.latency_max_ns))}) {
      common::mix_digest(digest, value);
    }
  }
  return digest;
}

TEST(CampaignRunner, ColumnsOutsideTheReportDigestArePinned) {
  // The report digest pins the samples, errors and output digests; these
  // anchors pin the remaining per-row columns of the two fault presets
  // (120 frames, campaign seed 1).
  constexpr std::uint64_t kFaultSweepColumns = 0x8ea2c9e58d710d2bULL;
  constexpr std::uint64_t kFtSweepColumns = 0x7f5322aff036afeaULL;
  EXPECT_EQ(unreported_columns_digest(runner_with(4).run(presets::fault_sweep(120, 1))),
            kFaultSweepColumns);
  EXPECT_EQ(unreported_columns_digest(runner_with(4).run(presets::fault_tolerance_sweep(120, 1))),
            kFtSweepColumns);
}

TEST(RunScenario, ZeroFramesFeedNoSamplesOnEveryWorkload) {
  for (const Workload workload : {Workload::kBrakeDear, Workload::kBrakeNondet, Workload::kAcc}) {
    ScenarioSpec spec;
    spec.workload = workload;
    spec.frames = 0;
    const RunOutcome outcome = run_scenario(spec);
    EXPECT_EQ(outcome.samples_in, 0u) << to_string(workload);
    EXPECT_EQ(outcome.samples_out, 0u) << to_string(workload);
  }
}

}  // namespace
}  // namespace dear::scenario
