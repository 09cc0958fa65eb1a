// Deadline/latency vs error-rate trade-off (paper §IV.B):
//
//   "These benefits come at the cost of an extra physical time delay as
//    each SWC needs to account for worst case computation and
//    communication delays. ... For certain applications it is acceptable
//    to deliberately introduce the possibility of sporadic errors by
//    setting deadlines to values lower than the actual WCET. ... the
//    trade-off between end-to-end latency and error rate becomes
//    apparent."
//
// Sweeps a global scale factor over the paper's deadlines (5/25/25/5 ms)
// and prints end-to-end latency and observable error rate per point.
// Expected shape: latency decreases linearly with the scale; the error
// rate is zero while scaled deadlines cover the execution times
// (scale >= ~0.8 for the modeled 8-20 ms with 25 ms deadlines) and grows
// rapidly below the crossover.
//
// Environment knob: DEAR_TRADEOFF_FRAMES (default 20000).
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "common/flags.hpp"

int main(int argc, char** argv) {
  const dear::common::Flags flags(argc, argv);
  const auto frames = static_cast<std::uint64_t>(
      flags.get_int("frames", dear::common::env_int("DEAR_TRADEOFF_FRAMES", 20'000)));

  std::printf("=====================================================================\n");
  std::printf("Deadline scale sweep: end-to-end latency vs observable error rate\n");
  std::printf("(%llu frames per point; deadlines = scale * {5,25,25,5} ms, L = 5 ms)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-7s %-12s %-12s %12s %12s %12s %10s\n", "scale", "latency", "latencyMax",
              "errors", "deadlineViol", "tardy", "err(%)");
  std::printf("  (err%% counts observable protocol errors per frame; a frame can\n");
  std::printf("   miss several deadlines, so the rate can exceed 100%%)\n");

  const double scales[] = {1.2, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3};
  double previous_rate = -1.0;
  bool monotone_after_crossover = true;
  for (const double scale : scales) {
    dear::brake::DearScenarioConfig config;
    config.frames = frames;
    config.platform_seed = 1;
    config.sensor_seed = 7;
    config.deadline_scale = scale;
    const auto result = dear::brake::run_dear_pipeline(config);
    const double mean_latency =
        result.latency.count() > 0 ? result.latency.mean() : 0.0;
    const double max_latency = result.latency.count() > 0 ? result.latency.max() : 0.0;
    const std::uint64_t observable =
        result.errors.total() + result.tardy_messages;
    const double rate =
        100.0 * static_cast<double>(observable) / static_cast<double>(frames);
    std::printf("  %-7.2f %-12s %-12s %12llu %12llu %12llu %10.3f\n", scale,
                dear::format_duration(static_cast<dear::Duration>(mean_latency)).c_str(),
                dear::format_duration(static_cast<dear::Duration>(max_latency)).c_str(),
                static_cast<unsigned long long>(observable),
                static_cast<unsigned long long>(result.deadline_violations),
                static_cast<unsigned long long>(result.tardy_messages), rate);
    // Monotone up to saturation (when nearly every frame already carries
    // two violations, small fluctuations are expected).
    if (previous_rate >= 0.0 && rate < previous_rate * 0.9) {
      monotone_after_crossover = false;
    }
    previous_rate = rate;
  }
  std::printf("\n  expected: zero errors while deadlines cover the WCET, then a\n");
  std::printf("  monotone error-rate increase as the scale shrinks: %s\n",
              monotone_after_crossover ? "observed" : "NOT observed");
  return 0;
}
