#include "analysis/analyzer.hpp"

#include <iterator>
#include <utility>

#include "analysis/app_facts.hpp"
#include "analysis/plan.hpp"
#include "analysis/rules.hpp"
#include "analysis/timing.hpp"
#include "analysis/workload_models.hpp"
#include "dear/app_builder.hpp"
#include "scenario/workloads.hpp"

namespace dear::analysis {

namespace {

[[nodiscard]] Facts extract_workload(const scenario::ScenarioSpec& spec) {
  Facts facts;
  switch (spec.workload) {
    case scenario::Workload::kBrakeDear: {
      brake::DearScenarioConfig config = scenario::to_dear_config(spec);
      config.build_only = true;
      config.preflight = [&facts](dear::AppBuilder& app) { facts = extract_app(app); };
      (void)brake::run_dear_pipeline(config);
      facts.workload = "dear";
      break;
    }
    case scenario::Workload::kAcc: {
      acc::AccScenarioConfig config = scenario::to_acc_config(spec);
      config.build_only = true;
      config.preflight = [&facts](dear::AppBuilder& app) { facts = extract_app(app); };
      (void)acc::run_acc_pipeline(config);
      facts.workload = "acc";
      break;
    }
    case scenario::Workload::kBrakeNondet:
      facts = nondet_brake_model();
      break;
  }
  return facts;
}

}  // namespace

Report analyze_spec(const scenario::ScenarioSpec& spec) {
  return analyze_spec(spec, AnalyzeOptions{});
}

Report analyze_spec(const scenario::ScenarioSpec& spec, const AnalyzeOptions& options) {
  Report report;
  report.workload = std::string(scenario::to_string(spec.workload));
  report.scenario = spec.name.empty() ? spec.describe() : spec.name;
  report.expected_deterministic = spec.expect_deterministic();
  report.facts = extract_workload(spec);
  report.diagnostics = check_structure(report.facts);
  std::vector<Diagnostic> envelope = check_envelope(spec, report.facts);
  report.diagnostics.insert(report.diagnostics.end(),
                            std::make_move_iterator(envelope.begin()),
                            std::make_move_iterator(envelope.end()));
  if (options.timing) {
    report.timing = analyze_timing(report.facts);
    check_timing(report.facts, report.timing, report.diagnostics);
    report.plan = build_plan(report.facts);
    report.timing_evaluated = true;
  }
  return report;
}

std::vector<Report> analyze_scenarios(const std::vector<scenario::ScenarioSpec>& specs) {
  return analyze_scenarios(specs, AnalyzeOptions{});
}

std::vector<Report> analyze_scenarios(const std::vector<scenario::ScenarioSpec>& specs,
                                      const AnalyzeOptions& options) {
  std::vector<Report> reports;
  reports.reserve(specs.size());
  for (const scenario::ScenarioSpec& spec : specs) {
    reports.push_back(analyze_spec(spec, options));
  }
  return reports;
}

}  // namespace dear::analysis
