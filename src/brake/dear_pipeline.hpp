// The deterministic brake assistant built on DEAR (paper §IV.B) —
// variant 3 of the three brake-assistant pipelines (variant 1:
// nondet_pipeline.hpp, the stock APD baseline; variant 2:
// det_client_pipeline.hpp, the DeterministicClient baseline; see the
// overview in det_client_pipeline.hpp).
//
// Each SWC's logic is encapsulated in a reactor with one reaction per
// incoming event; transactor bundles derived from the service descriptors
// (brake/services.hpp, dear/bundles.hpp) bind the reactors to the
// unchanged AP service interfaces, and the whole deployment is assembled
// by dear::AppBuilder. The Video Adapter is the sensor boundary: incoming
// camera frames are tagged with the physical time of reception, and from
// there on every reaction executes in a deterministic order.
//
// Deadlines (defaults from the paper): Video Adapter 5 ms, Preprocessing
// 25 ms, Computer Vision 25 ms, EBA 5 ms; maximum communication latency
// 5 ms; clock synchronization error 0 (all four SWCs share platform 2).
#pragma once

#include <cstdint>

#include "brake/metrics.hpp"
#include "brake/nondet_pipeline.hpp"
#include "dear/config.hpp"
#include "scenario/knobs.hpp"

namespace dear::brake {

/// The DEAR brake assistant's configuration: the shared platform knobs
/// (scenario/knobs.hpp; the camera is the sensor, the computer-vision node
/// the service-fault victim), the static-analysis hooks, and the
/// testbed's own timing and deadlines.
struct DearScenarioConfig : scenario::PlatformKnobs, scenario::RunHooks {
  Duration period{50 * kMillisecond};
  Duration camera_jitter{500 * kMicrosecond};
  Duration link_latency_min{200 * kMicrosecond};
  Duration link_latency_max{800 * kMicrosecond};

  // Paper §IV.B deadlines and bounds. deadline_scale scales all four
  // ("for certain applications it is acceptable to deliberately introduce
  // the possibility of sporadic errors by setting deadlines to values
  // lower than the actual WCET").
  Duration adapter_deadline{5 * kMillisecond};
  Duration preprocessing_deadline{25 * kMillisecond};
  Duration cv_deadline{25 * kMillisecond};
  Duration eba_deadline{5 * kMillisecond};
  Duration latency_bound{5 * kMillisecond};
  Duration clock_error_bound{0};

  transact::UntaggedPolicy untagged{transact::UntaggedPolicy::kFail};
};

/// Runs the DEAR pipeline; deadline violations, tardy messages and CV
/// mismatches are reported through PipelineResult.
[[nodiscard]] PipelineResult run_dear_pipeline(const DearScenarioConfig& config);

}  // namespace dear::brake
