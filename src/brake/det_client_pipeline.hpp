// Baseline: the brake assistant with each SWC using the AUTOSAR AP
// "deterministic client" (paper §II.B).
//
// This is variant 2 of the three brake-assistant pipelines (the case-study
// triptych of the paper's evaluation):
//
//   1. run_nondet_pipeline     (nondet_pipeline.hpp) — the stock APD
//      pipeline: periodic callbacks + one-slot buffers; exhibits the
//      Figure 5 error classes.
//   2. run_det_client_pipeline (this header)         — same communication,
//      but each SWC's activation is driven by the DeterministicClient
//      cycle; intra-SWC determinism only.
//   3. run_dear_pipeline       (dear_pipeline.hpp)   — SWCs as reactors
//      bound to the unchanged service interfaces through DEAR
//      transactors; end-to-end determinism.
//
// The deterministic client makes each SWC internally deterministic
// (cycle-driven activation, deterministic random numbers, deterministic
// worker pool) but "its scope is limited to individual SWCs" — the
// buffer-based communication between SWCs is untouched, so the Figure 5
// error classes persist. `dear_reports det-client` runs all three
// variants (classic, deterministic client, DEAR) on the same seeds.
#pragma once

#include "brake/nondet_pipeline.hpp"

namespace dear::brake {

/// Runs the classic pipeline with DeterministicClient-driven SWCs.
[[nodiscard]] PipelineResult run_det_client_pipeline(ScenarioConfig config);

}  // namespace dear::brake
