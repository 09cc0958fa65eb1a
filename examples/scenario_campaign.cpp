// Declarative fault/clock/network campaigns, batch-executed.
//
// Expands one of the preset scenario grids (src/scenario/presets.hpp)
// into a scenario matrix, runs every scenario on a worker pool, checks
// the determinism invariants (DEAR digests bit-identical across platform
// seeds, fault knobs within bounds, transports and worker counts; nondet
// error prevalence free to vary), prints the campaign table and
// optionally writes the JSON report consumed by CI.
#include <cstdio>
#include <fstream>

#include "common/cli.hpp"
#include "obs/obs_cli.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  dear::common::Cli cli("scenario_campaign",
                        "Runs a declarative fault/clock/network scenario campaign.");
  cli.add_string("preset", "smoke",
                 "campaign grid: smoke | fault-sweep | throughput | "
                 "fault-tolerance | fault-tolerance-smoke");
  cli.add_int("frames", 500, "sensor samples per scenario");
  cli.add_int("seed", 1, "campaign seed (root of every derived stream)");
  cli.add_int("workers", 0, "worker threads (0 = hardware concurrency)");
  cli.add_int("scenarios", 64, "grid size for the throughput preset");
  cli.add_string("json", "", "write the CampaignReport JSON to this file");
  cli.add_flag("timing", "annotate every row with the static timing verdict");
  cli.add_flag("quiet", "suppress the per-scenario table");
  dear::obs::register_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  if (!dear::obs::configure_from_cli(cli)) {
    return 1;
  }

  const std::uint64_t frames = cli.get_int("frames");
  const std::uint64_t seed = cli.get_int("seed");
  const std::string preset = cli.get_string("preset");

  dear::scenario::CampaignSpec campaign;
  if (preset == "smoke") {
    campaign = dear::scenario::presets::smoke(frames, seed);
  } else if (preset == "fault-sweep") {
    campaign = dear::scenario::presets::fault_sweep(frames, seed);
  } else if (preset == "throughput") {
    campaign = dear::scenario::presets::throughput(cli.get_int("scenarios"), frames, seed);
  } else if (preset == "fault-tolerance") {
    campaign = dear::scenario::presets::fault_tolerance_sweep(frames, seed);
  } else if (preset == "fault-tolerance-smoke") {
    campaign = dear::scenario::presets::fault_tolerance_smoke(frames, seed);
  } else {
    std::fprintf(stderr,
                 "unknown preset '%s' (smoke | fault-sweep | throughput | "
                 "fault-tolerance | fault-tolerance-smoke)\n",
                 preset.c_str());
    return 1;
  }

  dear::scenario::RunnerOptions options;
  options.workers = cli.get_int("workers");
  options.annotate_timing = cli.get_flag("timing");
  const dear::scenario::CampaignRunner runner(options);

  std::printf("expanding campaign '%s': %llu scenarios, seed %llu, %zu workers\n",
              campaign.name.c_str(), static_cast<unsigned long long>(campaign.grid_size()),
              static_cast<unsigned long long>(seed), runner.worker_count());
  const auto report = runner.run(campaign);

  if (!cli.get_flag("quiet")) {
    std::fputs(report.to_table().c_str(), stdout);
  } else {
    std::printf("%zu scenarios in %.2fs (%.1f/s), %zu violation(s), report digest %016llx\n",
                report.results.size(), report.wall_seconds, report.scenarios_per_second(),
                report.violations.size(),
                static_cast<unsigned long long>(report.report_digest()));
  }

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.to_json();
    std::printf("report written to %s\n", json_path.c_str());
  }
  if (!dear::obs::export_from_cli(cli)) {
    return 1;
  }

  return report.invariants_ok() ? 0 : 1;
}
