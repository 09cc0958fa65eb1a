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
// The timing is the paper's design, fixed in dear_pipeline.cpp: a 50 ms
// camera (scenario::kSensorPeriod), SWC deadlines of 5 ms (Video
// Adapter), 25 ms (Preprocessing), 25 ms (Computer Vision) and 5 ms (EBA),
// all scaled by the deadline_scale knob, and a maximum communication
// latency L of 5 ms (transact::kLatencyBound). The clock synchronization
// error E is 0 by default: all four SWCs share platform 2.
#pragma once

#include <cstdint>

#include "brake/metrics.hpp"
#include "brake/nondet_pipeline.hpp"
#include "scenario/knobs.hpp"

namespace dear::brake {

/// The DEAR brake assistant's configuration: the shared platform knobs
/// (scenario/knobs.hpp; the camera is the sensor, the computer-vision node
/// the service-fault victim), the static-analysis hooks, and the clock
/// error bound E of every channel.
struct DearScenarioConfig : scenario::PlatformKnobs, scenario::RunHooks {
  /// Widens each of the pipeline's three hops by E, as if its SWCs sat on
  /// platforms synchronized only to within E.
  Duration clock_error_bound{0};
};

/// Runs the DEAR pipeline; deadline violations, tardy messages and CV
/// mismatches are reported through PipelineResult.
[[nodiscard]] PipelineResult run_dear_pipeline(const DearScenarioConfig& config);

}  // namespace dear::brake
