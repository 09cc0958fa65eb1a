// The deterministic brake assistant built on DEAR (paper §IV.B).
//
// Same workload as brake_assistant_nondet, but each SWC is a reactor bound
// to the unchanged AP service interfaces through transactors, with the
// paper's deadlines (5/25/25/5 ms, L = 5 ms, E = 0). Expect zero errors
// and a deterministic output digest.
//
// Flags: --frames N (default 20000), --seed N (default 7),
//        --deadline-scale F (default 1.0; try 0.5 to see the trade-off),
//        --local-transport (deploy inter-SWC services over the zero-copy
//        in-process binding instead of SOME/IP; same outputs and tags)
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "common/flags.hpp"

int main(int argc, char** argv) {
  const dear::common::Flags flags(argc, argv);

  dear::brake::DearScenarioConfig config;
  config.frames = static_cast<std::uint64_t>(flags.get_int("frames", 20'000));
  config.platform_seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  config.sensor_seed = config.platform_seed + 1000;
  config.deadline_scale = flags.get_double("deadline-scale", 1.0);
  const bool local = flags.get_bool("local-transport", false);
  config.transport = local ? dear::scenario::Transport::kLocal : dear::scenario::Transport::kSomeIp;

  std::printf(
      "running the DEAR brake assistant: %llu frames, seed %llu, deadline scale %.2f, "
      "transport %s\n",
      static_cast<unsigned long long>(config.frames),
      static_cast<unsigned long long>(config.platform_seed), config.deadline_scale,
      local ? "local (zero-copy in-process)" : "someip");

  const auto result = dear::brake::run_dear_pipeline(config);

  std::printf("\nframes sent:                 %llu\n",
              static_cast<unsigned long long>(result.frames_sent));
  std::printf("frames processed by EBA:     %llu\n",
              static_cast<unsigned long long>(result.frames_processed_eba));
  std::printf("pipeline errors (Fig.5 cat): %llu\n",
              static_cast<unsigned long long>(result.errors.total()));
  std::printf("deadline violations:         %llu\n",
              static_cast<unsigned long long>(result.deadline_violations));
  std::printf("tardy messages:              %llu\n",
              static_cast<unsigned long long>(result.tardy_messages));
  std::printf("wrong brake decisions:       %llu\n",
              static_cast<unsigned long long>(result.wrong_decisions));
  std::printf("output digest:               %016llx\n",
              static_cast<unsigned long long>(result.output_digest));
  if (result.latency.count() > 0) {
    std::printf("end-to-end latency (arrival->brake): mean %s  max %s\n",
                dear::format_duration(static_cast<dear::Duration>(result.latency.mean())).c_str(),
                dear::format_duration(static_cast<dear::Duration>(result.latency.max())).c_str());
  }
  return result.errors.total() == 0 && result.wrong_decisions == 0 ? 0 : 1;
}
