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
//   2  usage / input error (unreadable file, malformed scenario JSON)

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
#include "scenario/presets.hpp"
#include "scenario/spec.hpp"
#include "scenario/spec_json.hpp"

namespace {

void print_usage(std::FILE* stream) {
  std::fputs(
      "usage: dear_lint [options]\n"
      "\n"
      "Statically verifies determinism of DEAR workloads and scenarios.\n"
      "\n"
      "options:\n"
      "  --workload dear|nondet|acc   lint a workload with default knobs (repeatable)\n"
      "  --scenario FILE.json         lint a scenario file (repeatable; see\n"
      "                               docs/static_analysis.md for the format)\n"
      "  --campaign smoke|fault-sweep|throughput|fault-tolerance\n"
      "                               lint every scenario of a preset campaign grid\n"
      "  --out FILE                   write the analysis-report-v1 JSON document\n"
      "  --timing                     run the end-to-end timing pass: chain latency\n"
      "                               bounds, DEAR-LAT rules and the compiled\n"
      "                               schedule plan (attached to the report)\n"
      "  --list-rules                 print the rule catalog (id, severity, summary)\n"
      "                               and exit; with --json as a JSON array\n"
      "  --json                       JSON output for --list-rules\n"
      "  --deny-errors                exit 1 if any error diagnostic is reported\n"
      "  --expect-errors              exit 1 if NO error diagnostic is reported\n"
      "                               (regression oracle for known-nondet inputs)\n"
      "  --quiet                      suppress the per-diagnostic listing\n"
      "  --help                       show this help\n"
      "\n"
      "Without --deny-errors/--expect-errors the exit code reports oracle\n"
      "agreement: nonzero iff any static verdict disagrees with the\n"
      "scenario's expect_deterministic() contract.\n",
      stream);
}

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
  std::vector<dear::scenario::ScenarioSpec> specs;
  std::string out_path;
  bool deny_errors = false;
  bool expect_errors = false;
  bool quiet = false;
  bool want_list_rules = false;
  bool json_output = false;
  dear::analysis::AnalyzeOptions analyze_options;

  auto next_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dear_lint: %s requires a value\n", flag);
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--deny-errors") {
      deny_errors = true;
    } else if (arg == "--list-rules") {
      want_list_rules = true;
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--timing") {
      analyze_options.timing = true;
    } else if (arg == "--expect-errors") {
      expect_errors = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--workload") {
      const char* value = next_value(i, "--workload");
      if (value == nullptr) {
        return 2;
      }
      auto spec = workload_spec(value);
      if (!spec) {
        std::fprintf(stderr, "dear_lint: unknown workload '%s' (dear|nondet|acc)\n", value);
        return 2;
      }
      specs.push_back(std::move(*spec));
    } else if (arg == "--scenario") {
      const char* value = next_value(i, "--scenario");
      if (value == nullptr) {
        return 2;
      }
      auto text = read_file(value);
      if (!text) {
        std::fprintf(stderr, "dear_lint: cannot read scenario file '%s'\n", value);
        return 2;
      }
      std::string error;
      auto spec = dear::scenario::spec_from_json(*text, &error);
      if (!spec) {
        std::fprintf(stderr, "dear_lint: %s: %s\n", value, error.c_str());
        return 2;
      }
      specs.push_back(std::move(*spec));
    } else if (arg == "--campaign") {
      const char* value = next_value(i, "--campaign");
      if (value == nullptr) {
        return 2;
      }
      auto expanded = campaign_specs(value);
      if (!expanded) {
        std::fprintf(stderr,
                     "dear_lint: unknown campaign '%s' "
                     "(smoke|fault-sweep|throughput|fault-tolerance)\n",
                     value);
        return 2;
      }
      specs.insert(specs.end(), expanded->begin(), expanded->end());
    } else if (arg == "--out") {
      const char* value = next_value(i, "--out");
      if (value == nullptr) {
        return 2;
      }
      out_path = value;
    } else {
      std::fprintf(stderr, "dear_lint: unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  if (want_list_rules) {
    return list_rules(json_output);
  }

  if (specs.empty()) {
    std::fputs("dear_lint: nothing to lint (pass --workload, --scenario or --campaign)\n",
               stderr);
    print_usage(stderr);
    return 2;
  }

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

  if (deny_errors && errors > 0) {
    return 1;
  }
  if (expect_errors && errors == 0) {
    std::fputs("dear_lint: expected error diagnostics but found none\n", stderr);
    return 1;
  }
  return mismatches == 0 ? 0 : 1;
}
