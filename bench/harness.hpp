// Benchmark harness behind bench_all's hot-path suites (bench/suites.hpp).
//
// What it standardizes:
//   * fixed-seed runs — suites use fixed seeds; the harness itself never
//     injects wall-clock entropy;
//   * warmup/repeat control (--warmup, --repeats, --quick);
//   * per-case p50/p99/mean latency and throughput extraction;
//   * machine-readable output: --json <path> writes every case and gate
//     in the one shared "dear-bench-v1" schema (see docs/performance.md),
//     which is what makes BENCH_*.json diffable across PRs;
//   * sanity gates: named pass/fail checks (digest equality, scaling
//     floors, speedup targets). finish() returns nonzero when any gate
//     failed, so CI fails on a hot-path regression without parsing output.
//
// Typical shape:
//   bench::Harness h("bench_foo", "What it measures.");
//   if (!h.parse(argc, argv)) return h.exit_code();
//   const std::uint64_t ops = h.scale(20000, 2000);
//   auto& c = h.measure("foo/fast", ops, [&] { ... });
//   h.gate("foo_speedup", c.throughput_per_s >= 2.0 * base, "details");
//   return h.finish();
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace dear::bench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] double now_ns();

struct CaseResult {
  std::string name;
  std::uint64_t iterations{0};  // total measured operations
  double p50_ns{0.0};           // per-operation latency percentiles
  double p99_ns{0.0};
  double mean_ns{0.0};
  double throughput_per_s{0.0};
  /// Bench-specific extras (digests, byte counts, ratios...), emitted
  /// verbatim into the JSON counters object.
  std::vector<std::pair<std::string, double>> counters;
};

struct GateResult {
  std::string name;
  bool ok{false};
  /// The gate could not be evaluated on this host (e.g. a scaling gate on
  /// a 1-core runner). Skipped gates never fail the run, and the JSON
  /// report carries the flag so downstream tooling can tell "passed" from
  /// "not measured" without parsing the detail string.
  bool skipped{false};
  std::string detail;
};

class Harness {
 public:
  Harness(std::string name, std::string summary);

  /// Parses argv (adding --json/--warmup/--repeats/--quick). False means
  /// exit with exit_code() (--help or bad flag).
  [[nodiscard]] bool parse(int argc, const char* const* argv);
  [[nodiscard]] int exit_code() const noexcept { return cli_.exit_code(); }

  /// --quick trims workloads for smoke runs (ctest / CI PR loops).
  [[nodiscard]] bool quick() const noexcept { return quick_; }
  /// Convenience: `full` normally, `quick_value` under --quick.
  [[nodiscard]] std::uint64_t scale(std::uint64_t full, std::uint64_t quick_value) const noexcept {
    return quick_ ? quick_value : full;
  }

  [[nodiscard]] std::uint64_t repeats() const noexcept { return repeats_; }

  /// Runs fn() --warmup times untimed, then `repeats()` timed times.
  /// Each timed call yields one latency sample of elapsed / ops_per_call.
  CaseResult& measure(const std::string& name, std::uint64_t ops_per_call,
                      const std::function<void()>& fn);

  /// Records a case computed from externally collected per-op samples
  /// (e.g. per-round-trip latencies measured inside a workload).
  CaseResult& record(const std::string& name, const std::vector<double>& samples_ns,
                     double throughput_per_s = 0.0);

  /// Attaches a named counter to a case.
  static void counter(CaseResult& result, std::string name, double value) {
    result.counters.emplace_back(std::move(name), value);
  }

  /// Sanity gate; failing gates make finish() return 1.
  void gate(const std::string& name, bool ok, const std::string& detail);

  /// Records a gate this host cannot evaluate (counts as ok, flagged
  /// `skipped` in the report).
  void gate_skipped(const std::string& name, const std::string& detail);

  /// Used by drivers with a canonical output file (bench_all →
  /// BENCH_hotpath.json); --json still overrides.
  void set_default_json_path(std::string path) { default_json_path_ = std::move(path); }

  /// Prints the case table and gate verdicts, writes the JSON report, and
  /// returns the process exit code (0 iff all gates passed and the report,
  /// when requested, was written).
  [[nodiscard]] int finish();

 private:
  [[nodiscard]] bool write_json(const std::string& path) const;

  std::string name_;
  common::Cli cli_;
  /// Deque, not vector: measure()/record() hand out references that must
  /// survive later case registrations.
  std::deque<CaseResult> cases_;
  std::vector<GateResult> gates_;
  std::string default_json_path_;
  std::uint64_t warmup_{3};
  std::uint64_t repeats_{20};
  bool quick_{false};
};

}  // namespace dear::bench
