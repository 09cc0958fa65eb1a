// Parallel scaling cases: does adding workers actually pay?
//
// Two subjects, swept over 1/2/4 workers:
//   * the threaded scheduler on an 8-wide fan-out — every event stages one
//     8-reaction level, so the per-event cost is dominated by the level
//     claim cursor + completion barrier this suite guards;
//   * the fault-sweep campaign batch runner — independent DES scenarios
//     claimed in batches off the runner cursor.
//
// Speedup/overhead floors need real parallel hardware, so they enforce
// only when the host has >= 2 cores (a 1-core container cannot exhibit
// parallel speedup; the gate is then recorded as skipped — machine-readable
// in the report's per-gate "skipped" field). That the trace and report
// digests do not move with the worker count is pinned by ctest
// (ParallelConformanceTest.FanoutTraceBitIdenticalToSerial,
// CampaignRunner.FaultSweepDigestIsPinned).
#include <cstdint>
#include <cstdio>
#include <thread>

#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "suites.hpp"
#include "topologies.hpp"

namespace dear::bench {

namespace {

constexpr std::size_t kFanoutWidth = 8;
constexpr unsigned kWorkerCounts[] = {1, 2, 4};
/// Frames per fault-sweep scenario (the preset is a fixed 96-scenario grid).
constexpr std::uint64_t kCampaignFrames = 120;

}  // namespace

void run_parallel_scaling_suite(Harness& h) {
  const std::size_t cores = std::thread::hardware_concurrency();
  char detail[192];

  // --- threaded scheduler: per-event cost over worker counts -----------------
  const auto events = static_cast<std::int64_t>(h.scale(2'000, 201));
  double per_event_1w = 0.0;
  double overhead_2w = 0.0;
  for (const unsigned workers : kWorkerCounts) {
    char name[64];
    std::snprintf(name, sizeof(name), "threaded_workers/%u", workers);
    CaseResult& result = h.measure(name, static_cast<std::uint64_t>(events), [&] {
      (void)run_fanout_threaded(workers, kFanoutWidth, events);
    });
    if (workers == 1) {
      per_event_1w = result.p50_ns;
    } else if (per_event_1w > 0.0) {
      const double overhead = result.p50_ns / per_event_1w;
      Harness::counter(result, "per_event_overhead_vs_1w", overhead);
      if (workers == 2) {
        overhead_2w = overhead;
      }
    }
  }
  const double overhead_ceiling = h.quick() ? 8.0 : 3.0;
  if (cores < 2) {
    std::snprintf(detail, sizeof(detail),
                  "host has %zu core(s) (observed %.2fx at 2 workers)", cores, overhead_2w);
    h.gate_skipped("threaded_overhead_3x", detail);
  } else {
    std::snprintf(detail, sizeof(detail),
                  "per-event p50 at 2 workers %.2fx of single-threaded (ceiling %.1fx)",
                  overhead_2w, overhead_ceiling);
    h.gate("threaded_overhead_3x", overhead_2w <= overhead_ceiling, detail);
  }

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
