// The stock (nondeterministic) brake assistant, as shipped with the APD
// (paper §IV.A), running on the simulated two-platform testbed —
// variant 1 of the three brake-assistant pipelines (variant 2:
// det_client_pipeline.hpp; variant 3: dear_pipeline.hpp; see the overview
// in det_client_pipeline.hpp).
//
// Each SWC stores incoming event data in a one-slot input buffer and runs
// its logic from a periodic 50 ms callback; buffer overwrites and
// misaligned reads are exactly the errors Figure 5 counts. The error rate
// depends on the relative phases of the periodic callbacks, the scheduling
// jitter, the network latency, and the clock drift between the platforms —
// all of which this scenario randomizes per seed. The bounds of that
// jitter and drift are fixed in nondet_pipeline.cpp.
#pragma once

#include <cstdint>

#include "brake/metrics.hpp"
#include "common/time.hpp"
#include "scenario/knobs.hpp"

namespace dear::brake {

/// The stock-APD brake assistant's configuration: the shared platform
/// knobs (scenario/knobs.hpp lists the ones this baseline ignores) plus
/// the two ablations of its SWC model.
struct ScenarioConfig : scenario::PlatformKnobs {
  /// Use the AP "deterministic client" cycle model inside each SWC
  /// (baseline for `dear_reports det-client`). Only intra-SWC behavior
  /// changes; communication stays buffer-based.
  bool use_deterministic_client{false};
  /// Input buffer depth per SWC: 1 reproduces the APD one-slot ("latest
  /// wins") semantics; larger values queue FIFO and evict the oldest.
  /// Ablated by `dear_reports ablation`.
  std::size_t input_queue_depth{1};
};

/// Runs the scenario to completion and returns the instrumented outcome.
[[nodiscard]] PipelineResult run_nondet_pipeline(const ScenarioConfig& config);

}  // namespace dear::brake
