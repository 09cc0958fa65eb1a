// Figure 5 (paper §IV.A): prevalence of errors for 20 executions of the
// brake assistant, 100,000 frames each, sorted by error rate; stacked by
// error type. Followed by the DEAR pipeline on the same 20 seeds (§IV.B),
// which must show zero errors.
//
// Expected shape (paper): per-instance error rates spanning roughly
// 0.018% .. 22.25% (mean 5.60%); the dominant error type varies between
// instances; the deterministic implementation shows no errors at all.
//
// Environment knobs: DEAR_FIG5_FRAMES (default 100000),
//                    DEAR_FIG5_INSTANCES (default 20),
//                    DEAR_FIG5_DEAR_FRAMES (default = DEAR_FIG5_FRAMES).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "brake/dear_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "common/flags.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  const dear::common::Flags flags(argc, argv);
  const auto frames = static_cast<std::uint64_t>(
      flags.get_int("frames", dear::common::env_int("DEAR_FIG5_FRAMES", 100'000)));
  const auto instances = static_cast<std::uint64_t>(
      flags.get_int("instances", dear::common::env_int("DEAR_FIG5_INSTANCES", 20)));
  const auto dear_frames = static_cast<std::uint64_t>(flags.get_int(
      "dear-frames", dear::common::env_int("DEAR_FIG5_DEAR_FRAMES",
                                           static_cast<std::int64_t>(frames))));

  std::printf("=====================================================================\n");
  std::printf("Figure 5: error prevalence, %llu executions x %llu frames\n",
              static_cast<unsigned long long>(instances),
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");

  struct Row {
    std::uint64_t seed;
    dear::brake::PipelineResult result;
  };
  std::vector<Row> rows;
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    dear::brake::ScenarioConfig config;
    config.frames = frames;
    config.platform_seed = seed;
    config.sensor_seed = seed + 1000;
    rows.push_back(Row{seed, dear::brake::run_nondet_pipeline(config)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.result.error_prevalence_percent() < b.result.error_prevalence_percent();
  });

  std::printf("stock (nondeterministic) brake assistant, sorted by error rate:\n\n");
  std::printf("  %-4s %-5s %10s %12s %12s %12s %12s %10s\n", "#", "seed", "prev(%)",
              "dropPre", "dropCV", "mismatchCV", "dropEBA", "wrongDec");
  dear::common::RunningStats prevalence;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& errors = rows[i].result.errors;
    const double rate = rows[i].result.error_prevalence_percent();
    prevalence.add(rate);
    std::printf("  %-4zu %-5llu %10.3f %12llu %12llu %12llu %12llu %10llu\n", i + 1,
                static_cast<unsigned long long>(rows[i].seed), rate,
                static_cast<unsigned long long>(errors.dropped_frames_preprocessing),
                static_cast<unsigned long long>(errors.dropped_frames_cv),
                static_cast<unsigned long long>(errors.input_mismatches_cv),
                static_cast<unsigned long long>(errors.dropped_vehicles_eba),
                static_cast<unsigned long long>(rows[i].result.wrong_decisions));
  }
  std::printf("\n  error prevalence: min %.3f%%  mean %.3f%%  max %.3f%%\n",
              prevalence.min(), prevalence.mean(), prevalence.max());
  std::printf("  (paper: min 0.018%%  mean 5.60%%  max 22.25%%)\n\n");

  std::printf("DEAR (deterministic) brake assistant, same seeds, %llu frames each:\n\n",
              static_cast<unsigned long long>(dear_frames));
  std::printf("  %-5s %10s %12s %12s %12s %10s %12s\n", "seed", "prev(%)", "errors",
              "deadlineViol", "tardy", "wrongDec", "ebaFrames");
  std::uint64_t total_errors = 0;
  std::uint64_t reference_digest = 0;
  bool digests_match = true;
  for (std::uint64_t seed = 1; seed <= instances; ++seed) {
    dear::brake::DearScenarioConfig config;
    config.frames = dear_frames;
    config.platform_seed = seed;
    config.sensor_seed = 424242;  // same camera input for every instance
    const auto result = dear::brake::run_dear_pipeline(config);
    total_errors += result.errors.total() + result.deadline_violations + result.tardy_messages;
    if (seed == 1) {
      reference_digest = result.output_digest;
    } else if (result.output_digest != reference_digest) {
      digests_match = false;
    }
    std::printf("  %-5llu %10.3f %12llu %12llu %12llu %10llu %12llu\n",
                static_cast<unsigned long long>(seed), result.error_prevalence_percent(),
                static_cast<unsigned long long>(result.errors.total()),
                static_cast<unsigned long long>(result.deadline_violations),
                static_cast<unsigned long long>(result.tardy_messages),
                static_cast<unsigned long long>(result.wrong_decisions),
                static_cast<unsigned long long>(result.frames_processed_eba));
  }
  std::printf("\n  total DEAR errors across all instances: %llu (paper: 0)\n",
              static_cast<unsigned long long>(total_errors));
  std::printf("  identical output digest across platform seeds: %s\n",
              digests_match ? "yes (deterministic)" : "NO");
  return total_errors == 0 && digests_match ? 0 : 1;
}
