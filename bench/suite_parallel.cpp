// Parallel scaling case: does adding workers actually pay?
//
// The subject is the fault-sweep campaign batch runner, swept over 1/2/4
// workers: independent DES scenarios claimed in batches off the runner
// cursor. (A tag's reactions always run on one thread, so the reactor
// scheduler itself has no worker count to sweep.)
//
// The speedup floor needs real parallel hardware, so it enforces only when
// the host has >= 2 cores (a 1-core container cannot exhibit parallel
// speedup; the gate is then recorded as skipped — machine-readable in the
// report's per-gate "skipped" field). That the report digest does not move
// with the worker count is pinned by ctest
// (CampaignRunner.FaultSweepDigestIsPinned).
#include <cstdint>
#include <cstdio>
#include <thread>

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "suites.hpp"

namespace dear::bench {

namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4};
/// Frames per fault-sweep scenario (the preset is a fixed 96-scenario grid).
constexpr std::uint64_t kCampaignFrames = 120;

}  // namespace

void run_parallel_scaling_suite(Harness& h) {
  const std::size_t cores = std::thread::hardware_concurrency();
  char detail[192];

  // --- campaign batch runner: throughput over worker counts ------------------
  const auto campaign = scenario::presets::fault_sweep(kCampaignFrames, 1);
  const auto scenario_count = static_cast<std::uint64_t>(campaign.expand().size());
  double serial_throughput = 0.0;
  double speedup_2w = 0.0;
  for (const unsigned workers : kWorkerCounts) {
    char name[64];
    if (workers == 1) {
      std::snprintf(name, sizeof(name), "fault_sweep/%llux%lluf/serial",
                    static_cast<unsigned long long>(scenario_count),
                    static_cast<unsigned long long>(kCampaignFrames));
    } else {
      std::snprintf(name, sizeof(name), "fault_sweep/%llux%lluf/%uworkers",
                    static_cast<unsigned long long>(scenario_count),
                    static_cast<unsigned long long>(kCampaignFrames), workers);
    }
    CaseResult& result = h.measure(name, scenario_count, [&] {
      scenario::RunnerOptions runner_options;
      runner_options.workers = workers;
      (void)scenario::CampaignRunner(runner_options).run(campaign);
    });
    if (workers == 1) {
      serial_throughput = result.throughput_per_s;
    } else if (serial_throughput > 0.0) {
      const double speedup = result.throughput_per_s / serial_throughput;
      Harness::counter(result, "speedup_vs_serial", speedup);
      if (workers == 2) {
        speedup_2w = speedup;
      }
    }
  }

  const double speedup_floor = h.quick() ? 1.2 : 1.6;
  if (cores < 2) {
    std::snprintf(detail, sizeof(detail),
                  "host has %zu core(s) (observed %.2fx at 2 workers)", cores, speedup_2w);
    h.gate_skipped("campaign_speedup_2w", detail);
  } else {
    std::snprintf(detail, sizeof(detail),
                  "campaign throughput %.2fx serial at 2 workers (floor %.1fx)", speedup_2w,
                  speedup_floor);
    h.gate("campaign_speedup_2w", speedup_2w >= speedup_floor, detail);
  }
}

}  // namespace dear::bench
