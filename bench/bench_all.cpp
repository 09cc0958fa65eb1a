// Hot-path trajectory program: runs every hot-path suite in one process and
// writes BENCH_hotpath.json (the committed, diffable perf record; see
// docs/performance.md for the schema). Exit status reflects the gates:
//   * event_queue_speedup_2x          — pooled queue >= 2x the std::map queue
//   * someip_pooled_roundtrip_faster  — pooled round-trip p50 below fresh
//   * campaign_speedup_2w             — fault sweep >= 1.6x serial at 2
//                                       workers (needs >= 2 cores)
//   * obs/event_queue_overhead_5pct,
//     obs/dear_pipeline_overhead_5pct — metrics + spans live within 5%
//   * ft_idle_overhead_5pct           — idle fault-tolerance hooks within 5%
//   * dataplane_local_loaned_10x_1mb  — local loaned streaming >= 10x encode
//                                       GB/s at 1 MiB
//   * dataplane_{local,someip}_delivery — every stream delivered in time
//   * local_backend_lower_p50         — LocalBinding round-trip p50 below
//                                       SOME/IP (from 1000 round trips)
// so CI fails on a hot-path or scaling regression without parsing any
// console output. Digest anchors, worker-count invariance and the
// zero-copy audits are ctest's (see docs/performance.md).
#include "suites.hpp"

int main(int argc, char** argv) {
  dear::bench::Harness harness("hotpath", "All hot-path suites; writes BENCH_hotpath.json.");
  harness.set_default_json_path("BENCH_hotpath.json");
  if (!harness.parse(argc, argv)) {
    return harness.exit_code();
  }

  dear::bench::run_reactor_suite(harness);
  dear::bench::run_someip_suite(harness);
  dear::bench::run_parallel_scaling_suite(harness);
  dear::bench::run_obs_suite(harness);
  dear::bench::run_ft_suite(harness);
  dear::bench::run_dataplane_suite(harness);
  dear::bench::run_binding_suite(harness);
  return harness.finish();
}
