// The static determinism analyzer: ScenarioSpec → analysis report,
// without executing a single event.
//
// Reactor workloads (dear, acc) are analyzed by *constructing* the real
// application: the pipeline runs in build-only mode, wiring every node,
// logic reactor and transactor bundle exactly as an execution would, and
// the preflight hook extracts the fact table from the genuine dependency
// graphs. The stock-APD baseline has no reactor graph and is analyzed
// through its declared component model (workload_models.hpp).
#pragma once

#include <vector>

#include "analysis/report.hpp"
#include "scenario/spec.hpp"

namespace dear::analysis {

struct AnalyzeOptions {
  /// Run the timing pass (analysis/timing.hpp): chain extraction,
  /// DEAR-LAT-001/002/004, and the compiled StaticPlan, all attached to the
  /// report. Off by default — the structural report stays byte-identical
  /// to PR 6's.
  bool timing{false};
};

/// Analyzes one scenario: extracts facts for the spec's workload and
/// evaluates the structural and envelope rules.
[[nodiscard]] Report analyze_spec(const scenario::ScenarioSpec& spec);
[[nodiscard]] Report analyze_spec(const scenario::ScenarioSpec& spec,
                                  const AnalyzeOptions& options);

/// Analyzes every scenario of an expanded campaign matrix.
[[nodiscard]] std::vector<Report> analyze_scenarios(
    const std::vector<scenario::ScenarioSpec>& specs);
[[nodiscard]] std::vector<Report> analyze_scenarios(
    const std::vector<scenario::ScenarioSpec>& specs, const AnalyzeOptions& options);

}  // namespace dear::analysis
