// The deterministic brake assistant built on DEAR (paper §IV.B).
//
// Same workload as brake_assistant_nondet, but each SWC is a reactor bound
// to the unchanged AP service interfaces through transactors, with the
// paper's deadlines (5/25/25/5 ms, L = 5 ms, E = 0). Expect zero errors
// and a deterministic output digest.
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  dear::common::Cli cli("brake_assistant_dear",
                        "Runs the deterministic brake assistant built on DEAR.");
  cli.add_int("frames", 20'000, "camera frames to simulate");
  cli.add_int("seed", 7, "platform seed (sensor seed derives from it)");
  cli.add_double("deadline-scale", 1.0,
                 "global scale on the transactor deadlines (try 0.5 to see the trade-off)");
  cli.add_flag("local-transport",
               "deploy inter-SWC services over the zero-copy in-process binding instead of "
               "SOME/IP (same outputs and tags)");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }

  dear::brake::DearScenarioConfig config;
  config.frames = cli.get_int("frames");
  config.platform_seed = cli.get_int("seed");
  config.sensor_seed = config.platform_seed + 1000;
  config.deadline_scale = cli.get_double("deadline-scale");
  const bool local = cli.get_flag("local-transport");
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
