// The stock (nondeterministic) brake assistant from the Adaptive Platform
// Demonstrator, on the simulated two-platform testbed (paper §IV.A).
//
// Runs one experiment instance and reports the four error categories of
// Figure 5. Different seeds model different process start offsets — watch
// the error rate swing by orders of magnitude.
#include <cstdio>

#include "brake/nondet_pipeline.hpp"
#include "common/cli.hpp"

int main(int argc, char** argv) {
  dear::common::Cli cli("brake_assistant_nondet",
                        "Runs the stock (nondeterministic) brake assistant.");
  cli.add_int("frames", 20'000, "camera frames to simulate");
  cli.add_int("seed", 7, "platform seed (sensor seed derives from it)");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }

  dear::brake::ScenarioConfig config;
  config.frames = cli.get_int("frames");
  config.platform_seed = cli.get_int("seed");
  config.sensor_seed = config.platform_seed + 1000;

  std::printf("running the stock brake assistant: %llu frames, seed %llu ...\n",
              static_cast<unsigned long long>(config.frames),
              static_cast<unsigned long long>(config.platform_seed));

  const auto result = dear::brake::run_nondet_pipeline(config);

  std::printf("\nframes sent:                        %llu\n",
              static_cast<unsigned long long>(result.frames_sent));
  std::printf("frames processed by EBA:            %llu\n",
              static_cast<unsigned long long>(result.frames_processed_eba));
  std::printf("dropped frames (Preprocessing):     %llu\n",
              static_cast<unsigned long long>(result.errors.dropped_frames_preprocessing));
  std::printf("dropped frames (Computer Vision):   %llu\n",
              static_cast<unsigned long long>(result.errors.dropped_frames_cv));
  std::printf("input mismatches (Computer Vision): %llu\n",
              static_cast<unsigned long long>(result.errors.input_mismatches_cv));
  std::printf("dropped vehicles (EBA):             %llu\n",
              static_cast<unsigned long long>(result.errors.dropped_vehicles_eba));
  std::printf("wrong brake decisions:              %llu\n",
              static_cast<unsigned long long>(result.wrong_decisions));
  std::printf("error prevalence:                   %.3f%%\n", result.error_prevalence_percent());
  return 0;
}
