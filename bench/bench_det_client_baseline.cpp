// The AP "deterministic client" baseline (paper §II.B):
//
//   "Because its scope is limited to individual SWCs, the solution only
//    addresses the first source of nondeterminism. Applications that
//    consist of multiple communicating deterministic clients can still
//    exhibit nondeterminism via 2) and 3)."
//
// Runs the same workload through three coordination schemes and prints
// the error totals per seed:
//   classic        — thread-style SWCs, one-slot buffers (the APD default)
//   det. client    — every SWC driven by the AP deterministic client
//   DEAR           — reactor SWCs with transactors
// Expected shape: classic and deterministic-client columns show the same
// class of errors (buffer races are untouched); the DEAR column is zero.
//
// Environment knob: DEAR_BASELINE_FRAMES (default 20000).
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "brake/det_client_pipeline.hpp"
#include "brake/nondet_pipeline.hpp"
#include "common/flags.hpp"

int main(int argc, char** argv) {
  const dear::common::Flags flags(argc, argv);
  const auto frames = static_cast<std::uint64_t>(
      flags.get_int("frames", dear::common::env_int("DEAR_BASELINE_FRAMES", 20'000)));

  std::printf("=====================================================================\n");
  std::printf("Baseline comparison: classic vs AP deterministic client vs DEAR\n");
  std::printf("(%llu frames per run; totals of the four Figure 5 error classes)\n",
              static_cast<unsigned long long>(frames));
  std::printf("=====================================================================\n\n");
  std::printf("  %-5s %14s %14s %14s\n", "seed", "classic", "det.client", "DEAR");

  std::uint64_t classic_total = 0;
  std::uint64_t det_client_total = 0;
  std::uint64_t dear_total = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    dear::brake::ScenarioConfig classic;
    classic.frames = frames;
    classic.platform_seed = seed;
    classic.sensor_seed = seed + 1000;

    dear::brake::DearScenarioConfig dear_config;
    dear_config.frames = frames;
    dear_config.platform_seed = seed;
    dear_config.sensor_seed = seed + 1000;

    const auto classic_result = dear::brake::run_nondet_pipeline(classic);
    const auto det_client_result = dear::brake::run_det_client_pipeline(classic);
    const auto dear_result = dear::brake::run_dear_pipeline(dear_config);

    classic_total += classic_result.errors.total();
    det_client_total += det_client_result.errors.total();
    dear_total += dear_result.errors.total() + dear_result.deadline_violations +
                  dear_result.tardy_messages;
    std::printf("  %-5llu %14llu %14llu %14llu\n", static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(classic_result.errors.total()),
                static_cast<unsigned long long>(det_client_result.errors.total()),
                static_cast<unsigned long long>(dear_result.errors.total()));
  }
  std::printf("  %-5s %14llu %14llu %14llu\n", "total",
              static_cast<unsigned long long>(classic_total),
              static_cast<unsigned long long>(det_client_total),
              static_cast<unsigned long long>(dear_total));
  std::printf("\n  expected: the deterministic client does not reduce inter-SWC errors\n");
  std::printf("  (sources 2 and 3 persist); DEAR eliminates them.\n");
  return dear_total == 0 ? 0 : 1;
}
