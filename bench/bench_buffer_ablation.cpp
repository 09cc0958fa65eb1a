// Ablation: input-buffer depth in the classic pipeline.
//
// The APD stores event data in *one-slot* buffers ("the logic of each
// component processes the last data written to its one-slot input buffer",
// paper §IV.A). A natural engineering reflex is to deepen the buffers.
// This ablation shows why that does not fix the problem: deeper FIFO
// buffers absorb the jitter-induced drops, but (a) they feed the logic
// staler data, and (b) once a drop desynchronizes Computer Vision's two
// queues, FIFO consumption keeps them misaligned *persistently* — input
// mismatches and wrong brake decisions go UP, not down. Buffer depth does
// not buy determinism; it trades one failure mode for a worse one.
//
// Environment knob: DEAR_ABLATION_FRAMES (default 20000).
#include <cstdio>

#include "brake/nondet_pipeline.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  const dear::common::Flags flags(argc, argv);
  const auto frames = static_cast<std::uint64_t>(
      flags.get_int("frames", dear::common::env_int("DEAR_ABLATION_FRAMES", 20'000)));

  std::printf("=====================================================================\n");
  std::printf("Ablation: input buffer depth in the classic pipeline\n");
  std::printf("(%llu frames per run, aggregated over 8 seeds per depth)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-6s %10s %12s %14s %14s %12s\n", "depth", "err(%)", "mismatches",
              "staleness", "staleMax", "wrongDec");

  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::uint64_t total_errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t wrong = 0;
    std::uint64_t total_frames = 0;
    dear::common::RunningStats staleness;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      dear::brake::ScenarioConfig config;
      config.frames = frames;
      config.platform_seed = seed;
      config.sensor_seed = seed + 1000;
      config.input_queue_depth = depth;
      const auto result = dear::brake::run_nondet_pipeline(config);
      total_errors += result.errors.total();
      mismatches += result.errors.input_mismatches_cv;
      wrong += result.wrong_decisions;
      total_frames += result.frames_sent;
      staleness.merge(result.staleness);
    }
    std::printf("  %-6zu %10.3f %12llu %14.2f %14.0f %12llu\n", depth,
                100.0 * static_cast<double>(total_errors) / static_cast<double>(total_frames),
                static_cast<unsigned long long>(mismatches), staleness.mean(), staleness.max(),
                static_cast<unsigned long long>(wrong));
  }
  std::printf("\n  expected: the drop-driven error rate collapses at depth 2 (the queue\n");
  std::printf("  absorbs the jitter), but mismatches and wrong decisions *increase*:\n");
  std::printf("  a single drop leaves the frame and lane queues permanently offset.\n");
  std::printf("  Staleness also grows. Buffer depth does not buy determinism.\n");
  return 0;
}
