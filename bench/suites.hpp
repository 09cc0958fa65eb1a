// Hot-path benchmark suites, run together by bench_all (which aggregates
// every suite into one BENCH_hotpath.json). Each function runs its cases
// on the given harness and registers its ratio and delivery gates.
// Correctness properties (digest anchors, worker-count invariance,
// zero-copy audits) are pinned by ctest, not here.
#pragma once

#include "harness.hpp"

namespace dear::bench {

/// Reactor scheduler hot paths: map-vs-pooled event queue (with the >= 2x
/// throughput gate) and end-to-end pipeline/fan-out/action-scheduling runs.
void run_reactor_suite(Harness& harness);

/// SOME/IP hot paths: encode/decode fresh-vs-pooled (with the pooled p50
/// gate), tag-extension overhead, timestamp bypass, and the case study's
/// heaviest payload round trip.
void run_someip_suite(Harness& harness);

/// Worker-count scaling over 1/2/4 workers: the 96-scenario fault sweep
/// (>= 1.6x serial at 2 workers). The gate needs >= 2 cores and is
/// recorded as skipped otherwise.
void run_parallel_scaling_suite(Harness& harness);

/// Observability overhead: disabled -> enabled -> disabled triples on the
/// DES event-queue pump and the DEAR pipeline, gating the enabled p50
/// within 5% of the slower disabled run.
void run_obs_suite(Harness& harness);

/// Fault-tolerance idle overhead: FT-free vs inert-fault-plan triple on
/// the DEAR pipeline, gating the idle injection hooks within 5%.
void run_ft_suite(Harness& harness);

/// Sensor data plane: loaned-slab vs encode event streaming at
/// 64 KiB/256 KiB/1 MiB/4 MiB over both transport backends (GB/s +
/// per-frame p50/p99), the >= 10x local loaned-vs-encode throughput gate
/// at 1 MiB, and a delivery gate per backend.
void run_dataplane_suite(Harness& harness);

/// Transport backends over real threads: SOME/IP loopback vs the
/// zero-copy LocalBinding, echo round-trip latency and notify throughput,
/// with the local-wins-on-p50 gate at representative sample counts.
void run_binding_suite(Harness& harness);

}  // namespace dear::bench
