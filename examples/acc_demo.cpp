// The adaptive cruise-control chain (radar → tracker → ACC controller →
// actuator, plus a driver console on the target_speed field), built
// entirely from ServiceInterface descriptors and the AppBuilder — no
// handwritten proxy/skeleton/transactor wiring anywhere (see
// src/acc/services.hpp and src/acc/pipeline.cpp).
//
#include <cstdio>

#include "acc/pipeline.hpp"
#include "common/cli.hpp"
#include "obs/obs_cli.hpp"

int main(int argc, char** argv) {
  dear::common::Cli cli("acc_demo", "Runs the DEAR adaptive cruise-control chain.");
  cli.add_int("scans", 5'000, "radar scans to simulate");
  cli.add_int("seed", 7, "platform seed (radar seed derives from it)");
  cli.add_double("deadline-scale", 1.0, "global scale on the transactor deadlines");
  cli.add_flag("local-transport",
               "deploy over the zero-copy in-process binding instead of SOME/IP");
  dear::obs::register_cli_options(cli);
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }
  if (!dear::obs::configure_from_cli(cli)) {
    return 1;
  }

  dear::acc::AccScenarioConfig config;
  config.frames = cli.get_int("scans");
  config.platform_seed = cli.get_int("seed");
  config.sensor_seed = config.platform_seed + 1000;
  config.deadline_scale = cli.get_double("deadline-scale");
  const bool local = cli.get_flag("local-transport");
  config.transport = local ? dear::scenario::Transport::kLocal : dear::scenario::Transport::kSomeIp;

  std::printf(
      "running the DEAR adaptive cruise control chain: %llu scans, seed %llu, "
      "deadline scale %.2f, transport %s\n",
      static_cast<unsigned long long>(config.frames),
      static_cast<unsigned long long>(config.platform_seed), config.deadline_scale,
      local ? "local (zero-copy in-process)" : "someip");

  const auto result = dear::acc::run_acc_pipeline(config);

  std::printf("\nscans sent:                  %llu\n",
              static_cast<unsigned long long>(result.scans_sent));
  std::printf("commands at actuator:        %llu\n",
              static_cast<unsigned long long>(result.commands));
  std::printf("brake interventions:         %llu\n",
              static_cast<unsigned long long>(result.brake_interventions));
  std::printf("wrong commands:              %llu\n",
              static_cast<unsigned long long>(result.wrong_commands));
  std::printf("field gets / sets / notifies: %llu / %llu / %llu\n",
              static_cast<unsigned long long>(result.field_gets),
              static_cast<unsigned long long>(result.field_sets),
              static_cast<unsigned long long>(result.field_notifies));
  std::printf("deadline violations:         %llu\n",
              static_cast<unsigned long long>(result.deadline_violations));
  std::printf("tardy messages:              %llu\n",
              static_cast<unsigned long long>(result.tardy_messages));
  std::printf("output digest:               %016llx\n",
              static_cast<unsigned long long>(result.output_digest));
  std::printf("tag digest:                  %016llx\n",
              static_cast<unsigned long long>(result.tag_digest));
  std::printf("console digest:              %016llx\n",
              static_cast<unsigned long long>(result.console_digest));
  if (!dear::obs::export_from_cli(cli)) {
    return 1;
  }
  return result.total_errors() == 0 ? 0 : 1;
}
