// Subscription churn: repeated unsubscribe/resubscribe of a pipeline
// event subscription while the run is live, on both bindings. Churn
// windows are physical, so churn scenarios leave the campaign's
// digest-invariance groups — the checkable claims are per-config
// reproducibility (same spec, same digests) and worker-count invariance
// of the campaign report.
#include <gtest/gtest.h>

#include "acc/pipeline.hpp"
#include "brake/dear_pipeline.hpp"
#include "scenario/runner.hpp"

namespace dear {
namespace {

using namespace dear::literals;

struct FtChurn : ::testing::Test {};

acc::AccScenarioConfig acc_config(bool local_transport) {
  acc::AccScenarioConfig config;
  config.frames = 40;
  config.sensor_seed = 11;
  config.platform_seed = 12;
  config.transport = local_transport ? scenario::Transport::kLocal : scenario::Transport::kSomeIp;
  config.service_faults.churn_period = 200_ms;
  return config;
}

brake::DearScenarioConfig brake_config(bool local_transport) {
  brake::DearScenarioConfig config;
  config.frames = 40;
  config.sensor_seed = 21;
  config.platform_seed = 22;
  config.transport = local_transport ? scenario::Transport::kLocal : scenario::Transport::kSomeIp;
  config.service_faults.churn_period = 200_ms;
  return config;
}

TEST_F(FtChurn, AccChurnIsReproduciblePerConfigOnBothBindings) {
  for (const bool local : {false, true}) {
    const acc::AccResult first = acc::run_acc_pipeline(acc_config(local));
    const acc::AccResult again = acc::run_acc_pipeline(acc_config(local));
    EXPECT_EQ(first.output_digest, again.output_digest) << "local=" << local;
    EXPECT_EQ(first.tag_digest, again.tag_digest) << "local=" << local;
    EXPECT_EQ(first.commands, again.commands) << "local=" << local;
    EXPECT_GT(first.commands, 0u) << "local=" << local;
  }
}

TEST_F(FtChurn, BrakeChurnIsReproduciblePerConfigOnBothBindings) {
  for (const bool local : {false, true}) {
    const brake::PipelineResult first = brake::run_dear_pipeline(brake_config(local));
    const brake::PipelineResult again = brake::run_dear_pipeline(brake_config(local));
    EXPECT_EQ(first.output_digest, again.output_digest) << "local=" << local;
    EXPECT_EQ(first.tag_digest, again.tag_digest) << "local=" << local;
  }
}

TEST_F(FtChurn, ChurnScenariosLeaveTheDeterminismGroups) {
  scenario::ScenarioSpec spec;
  spec.workload = scenario::Workload::kBrakeDear;
  EXPECT_TRUE(spec.expect_deterministic());
  spec.service_faults.churn_period = 200_ms;
  EXPECT_FALSE(spec.expect_deterministic())
      << "churn windows are physical: no digest-invariance claim";
}

TEST_F(FtChurn, CampaignReportDigestIsWorkerCountInvariant) {
  // Both workloads x both transports under churn, swept at 1/2/4 workers:
  // every scenario is an independent single-threaded DES run, so the
  // report digest must not move even though the scenarios themselves are
  // outside the digest-invariance groups.
  scenario::CampaignSpec campaign;
  campaign.name = "churn-matrix";
  campaign.campaign_seed = 3;
  campaign.base.frames = 30;
  campaign.workloads = {scenario::Workload::kBrakeDear, scenario::Workload::kAcc};
  campaign.transports = {scenario::Transport::kSomeIp, scenario::Transport::kLocal};
  ft::ServiceFaultModel churn;
  churn.churn_period = 200_ms;
  campaign.service_fault_models = {churn};
  ASSERT_EQ(campaign.grid_size(), 4u);

  std::uint64_t reference = 0;
  for (const unsigned workers : {1u, 2u, 4u}) {
    scenario::RunnerOptions options;
    options.workers = workers;
    const scenario::CampaignReport report = scenario::CampaignRunner(options).run(campaign);
    EXPECT_TRUE(report.invariants_ok());
    if (workers == 1) {
      reference = report.report_digest();
    } else {
      EXPECT_EQ(report.report_digest(), reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace dear
