#include "scenario/workloads.hpp"

#include <algorithm>

#include "common/digest.hpp"

namespace dear::scenario {

namespace {

[[nodiscard]] RunOutcome from_pipeline_result(const brake::PipelineResult& result) {
  RunOutcome outcome;
  outcome.samples_in = result.frames_sent;
  outcome.samples_out = result.frames_processed_eba;
  outcome.app_errors = result.errors.total();
  outcome.protocol_errors =
      result.deadline_violations + result.tardy_messages + result.untagged_messages;
  outcome.wrong_outputs = result.wrong_decisions;
  outcome.sensor_faults_injected = result.sensor_faults.total();
  outcome.deadline_violations = result.deadline_violations;
  outcome.ft = result.ft;
  outcome.output_digest = result.output_digest;
  outcome.tag_digest = result.tag_digest;
  if (result.latency.count() > 0) {
    outcome.latency_mean_ns = result.latency.mean();
    outcome.latency_max_ns = result.latency.max();
  }
  return outcome;
}

[[nodiscard]] RunOutcome from_acc_result(const acc::AccResult& result) {
  RunOutcome outcome;
  outcome.samples_in = result.scans_sent;
  outcome.samples_out = result.commands;
  // The chain has no buffer-overwrite errors by construction; losses show
  // up as protocol errors or missing commands.
  outcome.app_errors = result.scans_sent - std::min(result.commands, result.scans_sent);
  outcome.protocol_errors = result.deadline_violations + result.tardy_messages +
                            result.untagged_messages + result.dropped_messages +
                            result.remote_errors;
  outcome.wrong_outputs = result.wrong_commands;
  outcome.sensor_faults_injected = result.sensor_faults.total();
  outcome.deadline_violations = result.deadline_violations;
  outcome.ft = result.ft;
  // Fold the console's field-traffic digest in: a scenario only counts as
  // behaviorally identical when events, methods and field all agree.
  outcome.output_digest = result.output_digest;
  common::mix_digest(outcome.output_digest, result.console_digest);
  outcome.tag_digest = result.tag_digest;
  return outcome;
}

/// A pipeline config at its own defaults, carrying the spec's knobs.
template <typename Config>
[[nodiscard]] Config with_knobs(const PlatformKnobs& knobs) {
  Config config;
  static_cast<PlatformKnobs&>(config) = knobs;
  return config;
}

}  // namespace

brake::DearScenarioConfig to_dear_config(const ScenarioSpec& spec) {
  return with_knobs<brake::DearScenarioConfig>(spec);
}

brake::ScenarioConfig to_nondet_config(const ScenarioSpec& spec) {
  return with_knobs<brake::ScenarioConfig>(spec);
}

acc::AccScenarioConfig to_acc_config(const ScenarioSpec& spec) {
  return with_knobs<acc::AccScenarioConfig>(spec);
}

RunOutcome run_scenario(const ScenarioSpec& spec) {
  switch (spec.workload) {
    case Workload::kBrakeDear:
      return from_pipeline_result(brake::run_dear_pipeline(to_dear_config(spec)));
    case Workload::kBrakeNondet:
      return from_pipeline_result(brake::run_nondet_pipeline(to_nondet_config(spec)));
    case Workload::kAcc:
      return from_acc_result(acc::run_acc_pipeline(to_acc_config(spec)));
  }
  return RunOutcome{};
}

}  // namespace dear::scenario
