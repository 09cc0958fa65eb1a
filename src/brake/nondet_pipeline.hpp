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
// all of which this scenario randomizes per seed.
#pragma once

#include <cstdint>

#include "brake/metrics.hpp"
#include "common/time.hpp"
#include "scenario/knobs.hpp"

namespace dear::brake {

/// The stock-APD brake assistant's configuration: the shared platform
/// knobs (scenario/knobs.hpp lists the ones this baseline ignores) plus
/// the testbed's callback, dispatch and buffer model.
struct ScenarioConfig : scenario::PlatformKnobs {
  Duration period{50 * kMillisecond};
  /// Per-activation scheduling jitter bound for the SWC callbacks.
  Duration callback_jitter{2 * kMillisecond};
  /// Dispatcher-thread wake-up jitter for event receive handlers (ara::com
  /// dispatches them onto runtime threads; the skew between the frame and
  /// lane handlers is what misaligns Computer Vision's inputs).
  Duration dispatch_jitter{2 * kMillisecond};
  /// Camera capture jitter bound.
  Duration camera_jitter{500 * kMicrosecond};
  /// Inter-platform link latency range.
  Duration link_latency_min{200 * kMicrosecond};
  Duration link_latency_max{800 * kMicrosecond};
  /// Maximum per-task effective-period offset (ppm of the period, drawn
  /// per SWC per seed). Real periodic callbacks drift slightly relative to
  /// each other (timer re-arm overhead, load), so phase alignment between
  /// SWCs is transient rather than permanent.
  double task_period_drift_ppm{40.0};
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
