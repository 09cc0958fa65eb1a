#include "scenario/presets.hpp"

#include "scenario/testbed.hpp"

namespace dear::scenario::presets {

CampaignSpec smoke(std::uint64_t frames, std::uint64_t campaign_seed) {
  CampaignSpec campaign;
  campaign.name = "smoke";
  campaign.campaign_seed = campaign_seed;
  campaign.base.frames = frames;
  campaign.workloads = {Workload::kBrakeDear, Workload::kBrakeNondet};
  campaign.net_drop_probabilities = {0.0, 0.05};
  campaign.net_duplicate_probabilities = {0.0, 0.1};
  campaign.replicas = 2;
  return campaign;  // 2 * 2 * 2 * 2 = 16 scenarios
}

CampaignSpec fault_sweep(std::uint64_t frames, std::uint64_t campaign_seed) {
  CampaignSpec campaign;
  campaign.name = "fault-sweep";
  campaign.campaign_seed = campaign_seed;
  campaign.base.frames = frames;
  campaign.workloads = {Workload::kBrakeDear, Workload::kBrakeNondet, Workload::kAcc};
  campaign.transports = {Transport::kSomeIp, Transport::kLocal};
  campaign.net_drop_probabilities = {0.0, 0.02};
  campaign.net_duplicate_probabilities = {0.0, 0.05};
  sim::SensorFaultModel faulty;
  faulty.drop_probability = 0.02;
  faulty.stuck_probability = 0.02;
  faulty.noise_probability = 0.01;
  campaign.sensor_fault_models = {sim::SensorFaultModel{}, faulty};
  campaign.replicas = 2;
  return campaign;  // 3 * 2 * 2 * 2 * 2 * 2 = 96 scenarios
}

CampaignSpec fault_tolerance_sweep(std::uint64_t frames, std::uint64_t campaign_seed) {
  CampaignSpec campaign;
  campaign.name = "fault-tolerance";
  campaign.campaign_seed = campaign_seed;
  campaign.base.frames = frames;
  campaign.workloads = {Workload::kBrakeDear, Workload::kAcc};
  campaign.transports = {Transport::kSomeIp, Transport::kLocal};
  // Both pipelines sample at kSensorPeriod (50 ms), and crash_at counts from sensor
  // sample 0's nominal release: down a third of the way in, back up after
  // a quarter of the run spent dark. The half-period offset keeps both
  // window boundaries strictly between the victims' wire-tag clouds (the
  // brake victim's traffic sits near the grid +{5, 30}ms mod period, the
  // ACC victim's at +5ms): sensor tags carry sub-millisecond jitter, so
  // a boundary that razor-cut a cloud would make membership of that one
  // frame platform-seed-dependent.
  ft::ServiceFaultModel crash;
  crash.crash_at = static_cast<Duration>(frames / 3) * kSensorPeriod + kSensorPeriod / 2;
  crash.restart_after = static_cast<Duration>(frames / 4) * kSensorPeriod;
  ft::ServiceFaultModel crash_and_faults = crash;
  crash_and_faults.call_error_probability = 0.02;
  crash_and_faults.call_omission_probability = 0.02;
  campaign.service_fault_models = {crash, crash_and_faults};
  ft::RetryBudget two_attempts{2, 6 * kMillisecond, 5 * kMillisecond};
  ft::RetryBudget three_attempts{3, 6 * kMillisecond, 5 * kMillisecond};
  campaign.retry_budgets = {ft::RetryBudget{}, two_attempts, three_attempts};
  campaign.replicas = 2;
  return campaign;  // 2 * 2 * 2 * 3 * 2 = 48 scenarios
}

CampaignSpec fault_tolerance_smoke(std::uint64_t frames, std::uint64_t campaign_seed) {
  CampaignSpec campaign = fault_tolerance_sweep(frames, campaign_seed);
  campaign.name = "fault-tolerance-smoke";
  campaign.retry_budgets = {ft::RetryBudget{2, 6 * kMillisecond, 5 * kMillisecond}};
  return campaign;  // 2 * 2 * 2 * 1 * 2 = 16 scenarios
}

CampaignSpec throughput(std::uint64_t scenario_count, std::uint64_t frames,
                        std::uint64_t campaign_seed) {
  CampaignSpec campaign;
  campaign.name = "throughput";
  campaign.campaign_seed = campaign_seed;
  campaign.base.frames = frames;
  campaign.base.workload = Workload::kBrakeDear;
  campaign.replicas = scenario_count;
  return campaign;
}

}  // namespace dear::scenario::presets
