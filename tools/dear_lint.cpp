// dear_lint — static determinism verifier CLI.
//
// Lints workloads, scenario files and campaign grids without executing a
// single event: the analyzer constructs the reactor graphs (build-only),
// extracts the fact tables and evaluates the determinism rules
// (docs/static_analysis.md). Emits the "analysis-report-v1" JSON document
// and gates CI through its exit code.
//
// Exit codes:
//   0  all checks passed
//   1  error diagnostics found while --deny-errors, or none while
//      --expect-errors, or a static verdict disagreed with the runtime
//      oracle (expect_deterministic())
//   2  usage / input error (unknown option, workload or campaign,
//      unreadable file, malformed scenario JSON)

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/report.hpp"
#include "common/cli.hpp"
#include "scenario/presets.hpp"
#include "scenario/spec.hpp"
#include "scenario/spec_json.hpp"

namespace {

constexpr const char* kSummary =
    "Statically verifies determinism of DEAR workloads and scenarios.\n"
    "\n"
    "Workloads: dear, nondet, acc. Campaigns: smoke, fault-sweep, throughput,\n"
    "fault-tolerance. Scenario files: see docs/static_analysis.md. Specs are\n"
    "linted as workloads first, then scenario files, then campaigns, each kind\n"
    "in command-line order.\n"
    "\n"
    "Exit codes: 0 all checks passed; 1 error diagnostics found while\n"
    "--deny-errors, none while --expect-errors, or a static verdict that\n"
    "disagrees with the scenario's expect_deterministic() contract; 2 usage or\n"
    "input error.";

std::optional<dear::scenario::ScenarioSpec> workload_spec(const std::string& name) {
  dear::scenario::ScenarioSpec spec;
  if (name == "dear") {
    spec.workload = dear::scenario::Workload::kBrakeDear;
  } else if (name == "nondet") {
    spec.workload = dear::scenario::Workload::kBrakeNondet;
  } else if (name == "acc") {
    spec.workload = dear::scenario::Workload::kAcc;
  } else {
    return std::nullopt;
  }
  spec.name = name;
  return spec;
}

std::optional<std::vector<dear::scenario::ScenarioSpec>> campaign_specs(const std::string& name) {
  // Frame counts / seeds only shape scenario identity strings here — the
  // analyzer never executes, so keep them at the CI smoke sizes.
  if (name == "smoke") {
    return dear::scenario::presets::smoke(/*frames=*/200, /*campaign_seed=*/1).expand();
  }
  if (name == "fault-sweep") {
    return dear::scenario::presets::fault_sweep(/*frames=*/200, /*campaign_seed=*/1).expand();
  }
  if (name == "throughput") {
    return dear::scenario::presets::throughput(/*scenario_count=*/8, /*frames=*/200,
                                               /*campaign_seed=*/1)
        .expand();
  }
  if (name == "fault-tolerance") {
    return dear::scenario::presets::fault_tolerance_sweep(/*frames=*/200, /*campaign_seed=*/1)
        .expand();
  }
  return std::nullopt;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int list_rules(bool as_json) {
  using dear::analysis::kAllRules;
  using dear::analysis::rule_id;
  using dear::analysis::rule_severity;
  using dear::analysis::rule_summary;
  using dear::analysis::to_string;
  if (as_json) {
    std::printf("[\n");
    const std::size_t count = std::size(kAllRules);
    for (std::size_t i = 0; i < count; ++i) {
      const auto rule = kAllRules[i];
      const std::string_view id = rule_id(rule);
      const std::string_view severity = to_string(rule_severity(rule));
      const std::string_view summary = rule_summary(rule);
      std::printf("  {\"id\": \"%.*s\", \"severity\": \"%.*s\", \"summary\": \"%.*s\"}%s\n",
                  static_cast<int>(id.size()), id.data(), static_cast<int>(severity.size()),
                  severity.data(), static_cast<int>(summary.size()), summary.data(),
                  i + 1 < count ? "," : "");
    }
    std::printf("]\n");
  } else {
    for (const auto rule : kAllRules) {
      const std::string_view id = rule_id(rule);
      const std::string_view severity = to_string(rule_severity(rule));
      const std::string_view summary = rule_summary(rule);
      std::printf("%-14.*s %-8.*s %.*s\n", static_cast<int>(id.size()), id.data(),
                  static_cast<int>(severity.size()), severity.data(),
                  static_cast<int>(summary.size()), summary.data());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  dear::common::Cli cli("dear_lint", kSummary);
  cli.add_strings("workload", "workload to lint with default knobs");
  cli.add_strings("scenario", "scenario JSON file to lint");
  cli.add_strings("campaign", "preset campaign grid to lint");
  cli.add_string("out", "", "write the analysis-report-v1 JSON here");
  cli.add_flag("timing", "add the timing pass: chains, DEAR-LAT, schedule plan");
  cli.add_flag("list-rules", "print the rule catalog and exit");
  cli.add_flag("json", "JSON output for --list-rules");
  cli.add_flag("deny-errors", "exit 1 if any error diagnostic is reported");
  cli.add_flag("expect-errors", "exit 1 if NO error diagnostic is reported");
  cli.add_flag("quiet", "suppress the per-diagnostic listing");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code() == 0 ? 0 : 2;
  }

  std::vector<dear::scenario::ScenarioSpec> specs;
  for (const std::string& name : cli.get_strings("workload")) {
    auto spec = workload_spec(name);
    if (!spec) {
      std::fprintf(stderr, "dear_lint: unknown workload '%s' (dear|nondet|acc)\n", name.c_str());
      return 2;
    }
    specs.push_back(std::move(*spec));
  }
  for (const std::string& path : cli.get_strings("scenario")) {
    auto text = read_file(path);
    if (!text) {
      std::fprintf(stderr, "dear_lint: cannot read scenario file '%s'\n", path.c_str());
      return 2;
    }
    std::string error;
    auto spec = dear::scenario::spec_from_json(*text, &error);
    if (!spec) {
      std::fprintf(stderr, "dear_lint: %s: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    specs.push_back(std::move(*spec));
  }
  for (const std::string& name : cli.get_strings("campaign")) {
    auto expanded = campaign_specs(name);
    if (!expanded) {
      std::fprintf(stderr,
                   "dear_lint: unknown campaign '%s' "
                   "(smoke|fault-sweep|throughput|fault-tolerance)\n",
                   name.c_str());
      return 2;
    }
    specs.insert(specs.end(), expanded->begin(), expanded->end());
  }

  if (cli.get_flag("list-rules")) {
    return list_rules(cli.get_flag("json"));
  }

  if (specs.empty()) {
    std::fputs("dear_lint: nothing to lint (pass --workload, --scenario or --campaign)\n",
               stderr);
    std::fputs(cli.usage().c_str(), stderr);
    return 2;
  }

  dear::analysis::AnalyzeOptions analyze_options;
  analyze_options.timing = cli.get_flag("timing");
  const bool quiet = cli.get_flag("quiet");
  const std::string out_path = cli.get_string("out");
  const std::vector<dear::analysis::Report> reports =
      dear::analysis::analyze_scenarios(specs, analyze_options);

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t mismatches = 0;
  for (const auto& report : reports) {
    errors += report.error_count();
    warnings += report.warning_count();
    if (!report.verdict_matches()) {
      ++mismatches;
    }
    if (!quiet) {
      std::printf("%s %s/%s: %zu error(s), %zu warning(s)%s\n",
                  report.deterministic() ? "ok  " : "FAIL", report.workload.c_str(),
                  report.scenario.c_str(), report.error_count(), report.warning_count(),
                  report.verdict_matches() ? "" : "  [ORACLE MISMATCH]");
      for (const auto& diagnostic : report.diagnostics) {
        const std::string_view id = rule_id(diagnostic.rule);
        const std::string_view severity = to_string(diagnostic.severity);
        std::printf("  [%.*s] %.*s %s: %s\n", static_cast<int>(id.size()), id.data(),
                    static_cast<int>(severity.size()), severity.data(),
                    diagnostic.subject.c_str(), diagnostic.message.c_str());
      }
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "dear_lint: cannot write '%s'\n", out_path.c_str());
      return 2;
    }
    out << dear::analysis::report_collection_json(reports);
  }

  std::printf("dear_lint: %zu scenario(s), %zu error(s), %zu warning(s), %zu oracle mismatch(es)\n",
              reports.size(), errors, warnings, mismatches);

  if (cli.get_flag("deny-errors") && errors > 0) {
    return 1;
  }
  if (cli.get_flag("expect-errors") && errors == 0) {
    std::fputs("dear_lint: expected error diagnostics but found none\n", stderr);
    return 1;
  }
  return mismatches == 0 ? 0 : 1;
}
