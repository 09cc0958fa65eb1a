// Standalone driver for the parallel scaling suite (suite_parallel.cpp):
// threaded-scheduler worker sweep + fault-sweep campaign worker sweep,
// with the digest gates always on and the speedup/overhead floors
// enforced on hosts with >= 2 cores.
#include "suites.hpp"

int main(int argc, char** argv) {
  dear::bench::Harness harness(
      "parallel_scaling",
      "Worker-count scaling of the threaded scheduler and the campaign runner.");
  harness.cli().add_int("events", 2000, "events per threaded-scheduler run");
  harness.cli().add_int("frames", 120, "frames per fault-sweep scenario");
  harness.cli().add_int("seed", 1, "campaign seed");
  if (!harness.parse(argc, argv)) {
    return harness.exit_code();
  }

  dear::bench::ParallelScalingOptions options;
  options.threaded_events = harness.cli().get_int("events");
  options.campaign_frames = harness.cli().get_int("frames");
  options.campaign_seed = harness.cli().get_int("seed");
  dear::bench::run_parallel_scaling_suite(harness, options);
  return harness.finish();
}
