// Workload factories: ScenarioSpec → one full DES run.
//
// Each factory copies the spec's platform knobs into the configuration of
// one of the three case-study pipelines (all assembled via
// dear::AppBuilder resp. the classic wiring) and normalizes the
// pipeline-specific result into a RunOutcome the campaign engine can
// aggregate and compare across workloads.
#pragma once

#include <cstdint>

#include "acc/pipeline.hpp"
#include "brake/dear_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "ft/fault_model.hpp"
#include "scenario/spec.hpp"

namespace dear::scenario {

/// Workload-agnostic outcome of one scenario run.
struct RunOutcome {
  /// Sensor samples that entered the pipeline (frames resp. scans).
  std::uint64_t samples_in{0};
  /// Samples that reached the sink (EBA resp. actuator).
  std::uint64_t samples_out{0};
  /// Figure-5-style coordination errors (drops, mismatches).
  std::uint64_t app_errors{0};
  /// Observable DEAR protocol errors (deadline violations, tardy/dropped
  /// messages, remote errors). Zero for the nondet workload.
  std::uint64_t protocol_errors{0};
  /// Outputs differing from the drop-free reference pipeline.
  std::uint64_t wrong_outputs{0};
  /// Injected sensor faults (dropped + stuck + noisy samples).
  std::uint64_t sensor_faults_injected{0};
  /// Deadline violations alone (also counted in protocol_errors): the
  /// runtime side of the static deadline-miss oracle (DEAR-TIME-001 /
  /// DEAR-LAT-002). Deliberately NOT folded into the campaign report
  /// digest — the digest's input set is pinned.
  std::uint64_t deadline_violations{0};
  /// Fault-tolerance accounting (zero when the scenario injects no
  /// service faults). Report/JSON columns only — deliberately NOT folded
  /// into the campaign report digest.
  ft::Counters ft;
  /// Order-sensitive digest over the sink outputs.
  std::uint64_t output_digest{0};
  /// Digest over sink tags relative to sensor tags (reactor workloads).
  std::uint64_t tag_digest{0};
  /// End-to-end latency stats in ns (brake workloads; 0 when untracked).
  double latency_mean_ns{0.0};
  double latency_max_ns{0.0};

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return app_errors + protocol_errors + wrong_outputs;
  }

  [[nodiscard]] double error_prevalence_percent() const noexcept {
    if (samples_in == 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(app_errors) / static_cast<double>(samples_in);
  }
};

// Spec → pipeline-config mappings (exposed for tests and ad-hoc harnesses).
[[nodiscard]] brake::DearScenarioConfig to_dear_config(const ScenarioSpec& spec);
[[nodiscard]] brake::ScenarioConfig to_nondet_config(const ScenarioSpec& spec);
[[nodiscard]] acc::AccScenarioConfig to_acc_config(const ScenarioSpec& spec);

/// Executes one scenario to completion. Pure: every rng stream derives
/// from the spec's seeds, no state is shared between calls, so concurrent
/// invocations from the campaign worker pool are independent.
[[nodiscard]] RunOutcome run_scenario(const ScenarioSpec& spec);

}  // namespace dear::scenario
