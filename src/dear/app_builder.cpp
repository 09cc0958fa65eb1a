#include "dear/app_builder.hpp"

#include <string>

#include "analysis/app_facts.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"

namespace dear {

analysis::Report AppBuilder::validate() const { return validate(analysis::Gate::kAll); }

analysis::Report AppBuilder::validate(analysis::Gate gate) const {
  analysis::Report report;
  report.workload = "app";
  report.facts = analysis::extract_app(*this);
  report.diagnostics = analysis::check_structure(report.facts);
  if (analysis::has_gating_errors(report.diagnostics, gate)) {
    std::string what = "AppBuilder::validate: the constructed application is not deterministic:";
    for (const analysis::Diagnostic& diagnostic : report.diagnostics) {
      if (diagnostic.severity == analysis::Severity::kError) {
        what += "\n  [";
        what += analysis::rule_id(diagnostic.rule);
        what += "] " + diagnostic.subject + ": " + diagnostic.message;
      }
    }
    throw analysis::AnalysisError(what, report.diagnostics);
  }
  return report;
}

}  // namespace dear
