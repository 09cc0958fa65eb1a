// Hot-path trajectory driver: runs every hot-path suite plus the
// determinism anchors in one process and writes BENCH_hotpath.json (the
// committed, diffable perf record; see docs/performance.md for the
// schema). Exit status reflects the sanity gates:
//   * event_queue_speedup_2x       — pooled queue >= 2x the std::map queue
//   * event_queue_pop_order_identical
//   * someip_pooled_roundtrip_faster
//   * dear_digest_someip/local     — DEAR pipeline output digest unchanged
//   * fault_sweep_digest(_workers) — campaign report digest unchanged and
//                                    identical across 1/2/4 workers
//   * campaign_speedup_2w          — fault sweep >= 1.6x serial at 2
//                                    workers (hosts with >= 2 cores)
//   * threaded_overhead_3x         — threaded scheduler per-event p50 at 2
//                                    workers <= 3x single-threaded
//   * threaded_digest_workers      — trace/tag digests identical at 1/2/4
//                                    workers
//   * ft_idle_*/ft_sweep_*         — idle fault-tolerance hooks within 5%
//                                    with anchor digests unchanged; live
//                                    fault campaign digest-stable at every
//                                    worker count with zero violations
//   * dataplane_*                  — local loaned streaming >= 10x encode
//                                    GB/s at 1 MiB, zero payload copies +
//                                    zero slab allocations in steady
//                                    state, anchor digests unchanged with
//                                    1 MiB camera bursts live
// so CI fails on a hot-path, scaling or determinism regression without
// parsing any console output.
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "suites.hpp"

namespace {

// Golden digests for the fixed-seed anchor workloads below. Captured from
// the std::map-queue implementation; every later change must reproduce
// them bit-exactly.
constexpr std::uint64_t kDearDigest300f7 = 0xe4eb73d5ff217bdeULL;      // 300 frames, seed 7
constexpr std::uint64_t kFaultSweepDigest120f1 = 0x6b2d9413c9b8a160ULL;  // 96 scen., 120 frames

std::uint64_t run_dear_digest(bool local_transport) {
  dear::brake::DearScenarioConfig config;
  config.frames = 300;
  config.platform_seed = 7;
  config.sensor_seed = config.platform_seed + 1000;
  config.transport =
      local_transport ? dear::scenario::Transport::kLocal : dear::scenario::Transport::kSomeIp;
  return dear::brake::run_dear_pipeline(config).output_digest;
}

}  // namespace

int main(int argc, char** argv) {
  dear::bench::Harness harness(
      "hotpath", "All hot-path suites + determinism anchors; writes BENCH_hotpath.json.");
  harness.set_default_json_path("BENCH_hotpath.json");
  if (!harness.parse(argc, argv)) {
    return harness.exit_code();
  }

  dear::bench::run_reactor_suite(harness);
  dear::bench::run_someip_suite(harness);

  // --- determinism anchors ---------------------------------------------------
  char detail[160];

  std::uint64_t someip_digest = 0;
  harness.measure("dear_pipeline/300f/someip", 300,
                  [&] { someip_digest = run_dear_digest(false); });
  std::snprintf(detail, sizeof(detail), "digest %016llx, expected %016llx",
                static_cast<unsigned long long>(someip_digest),
                static_cast<unsigned long long>(kDearDigest300f7));
  harness.gate("dear_digest_someip", someip_digest == kDearDigest300f7, detail);

  std::uint64_t local_digest = 0;
  harness.measure("dear_pipeline/300f/local", 300,
                  [&] { local_digest = run_dear_digest(true); });
  std::snprintf(detail, sizeof(detail), "digest %016llx, expected %016llx",
                static_cast<unsigned long long>(local_digest),
                static_cast<unsigned long long>(kDearDigest300f7));
  harness.gate("dear_digest_local", local_digest == kDearDigest300f7, detail);

  // --- parallel scaling ------------------------------------------------------
  // The 96-scenario fault sweep at 1/2/4 workers (report digest anchored
  // to the golden value above and gated identical across worker counts)
  // plus the threaded-scheduler worker sweep.
  dear::bench::ParallelScalingOptions scaling;
  scaling.campaign_frames = 120;
  scaling.campaign_seed = 1;
  scaling.golden_campaign_digest = kFaultSweepDigest120f1;
  dear::bench::run_parallel_scaling_suite(harness, scaling);

  // --- observability overhead ------------------------------------------------
  // Enabled-vs-disabled triples on the event-queue and DEAR pipeline hot
  // paths (<= 5% gate) plus the digest-invariance contract with obs live.
  dear::bench::ObsOverheadOptions obs_options;
  obs_options.pipeline_frames = 300;
  obs_options.golden_digest = kDearDigest300f7;
  dear::bench::run_obs_suite(harness, obs_options);

  // --- fault tolerance -------------------------------------------------------
  // Idle injection hooks within 5% of the FT-free hot path (anchor digest
  // unchanged), then the fault-tolerance campaign with faults live: zero
  // determinism violations, report digest identical at 1/2/4 workers.
  dear::bench::FtSuiteOptions ft_options;
  ft_options.pipeline_frames = 300;
  ft_options.golden_digest = kDearDigest300f7;
  ft_options.sweep_frames = 120;
  ft_options.sweep_seed = 1;
  dear::bench::run_ft_suite(harness, ft_options);

  // --- sensor data plane -----------------------------------------------------
  // Loaned-slab vs encode streaming over both transports (>= 10x local
  // loaned GB/s at 1 MiB, zero payload copies and zero slab allocations
  // in steady state) and the anchor digest re-run with 1 MiB camera
  // bursts live.
  dear::bench::DataplaneOptions dataplane_options;
  dataplane_options.golden_digest = kDearDigest300f7;
  dear::bench::run_dataplane_suite(harness, dataplane_options);

  return harness.finish();
}
