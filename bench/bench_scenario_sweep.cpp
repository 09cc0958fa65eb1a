// Campaign batch-runner scaling: one scenario grid executed at several
// worker counts.
//
// Each scenario is an independent single-threaded DES run, so the batch
// must scale near-linearly until the core count is exhausted — and the
// report digest must be bit-identical at every worker count (the
// scheduling-independence half of the scenario engine's determinism
// contract). Digest equality is always enforced; the speedup threshold is
// enforced only when the host actually has at least --speedup-workers
// cores (a 1-core container cannot exhibit parallel speedup).
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  dear::common::Cli cli("bench_scenario_sweep",
                        "Measures campaign throughput scaling over worker counts.");
  cli.add_int("scenarios", 64, "grid size (homogeneous DEAR scenarios)");
  cli.add_int("frames", 2000, "frames per scenario");
  cli.add_int("seed", 1, "campaign seed");
  cli.add_int("max-workers", 4, "highest worker count measured (1, 2, 4, ... up to this)");
  cli.add_double("min-speedup", 3.0,
                 "required speedup at --speedup-workers (enforced only when the host has "
                 "that many cores; 0 disables)");
  cli.add_int("speedup-workers", 4, "worker count the speedup requirement applies to");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }

  const std::uint64_t scenarios = cli.get_int("scenarios");
  const std::uint64_t frames = cli.get_int("frames");
  const std::uint64_t seed = cli.get_int("seed");
  const std::size_t max_workers = cli.get_int("max-workers");
  const double min_speedup = cli.get_double("min-speedup");
  const std::size_t speedup_workers = cli.get_int("speedup-workers");
  const std::size_t cores = std::thread::hardware_concurrency();

  const auto campaign = dear::scenario::presets::throughput(scenarios, frames, seed);
  std::printf("scenario batch scaling: %llu scenarios x %llu frames, %zu hardware cores\n\n",
              static_cast<unsigned long long>(scenarios),
              static_cast<unsigned long long>(frames), cores);
  std::printf("  %-8s %12s %14s %10s %12s %18s\n", "workers", "wall(s)", "scen/s", "speedup",
              "violations", "reportDigest");

  struct Row {
    std::size_t workers;
    double wall;
    double rate;
    std::uint64_t digest;
    std::size_t violations;
  };
  std::vector<Row> rows;
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    dear::scenario::RunnerOptions options;
    options.workers = workers;
    const auto report = dear::scenario::CampaignRunner(options).run(campaign);
    rows.push_back(Row{workers, report.wall_seconds, report.scenarios_per_second(),
                       report.report_digest(), report.violations.size()});
    const double speedup = rows.front().wall / report.wall_seconds;
    std::printf("  %-8zu %12.3f %14.1f %9.2fx %12zu   %016llx\n", workers, report.wall_seconds,
                report.scenarios_per_second(), speedup, report.violations.size(),
                static_cast<unsigned long long>(report.report_digest()));
  }

  bool ok = true;
  for (const Row& row : rows) {
    if (row.digest != rows.front().digest) {
      std::printf("\nFAIL: report digest at %zu workers differs from serial run\n", row.workers);
      ok = false;
    }
    if (row.violations != 0) {
      std::printf("\nFAIL: %zu determinism violation(s) at %zu workers\n", row.violations,
                  row.workers);
      ok = false;
    }
  }
  std::printf("\nreport digest identical across worker counts: %s\n", ok ? "yes" : "NO");

  for (const Row& row : rows) {
    if (row.workers != speedup_workers || min_speedup <= 0.0) {
      continue;
    }
    const double speedup = rows.front().wall / row.wall;
    if (cores < speedup_workers) {
      std::printf("speedup check skipped: host has %zu core(s) < %zu workers\n", cores,
                  speedup_workers);
    } else if (speedup < min_speedup) {
      std::printf("FAIL: speedup %.2fx at %zu workers below required %.2fx\n", speedup,
                  row.workers, min_speedup);
      ok = false;
    } else {
      std::printf("speedup %.2fx at %zu workers meets the %.2fx requirement\n", speedup,
                  row.workers, min_speedup);
    }
  }
  return ok ? 0 : 1;
}
