// Fault-tolerance idle-overhead cases.
//
// The FT contract mirrors the obs one: with no service faults configured
// the injection hooks and retry plumbing must stay within 5% of the
// FT-free hot path. The idle probe installs an inert fault plan on every
// runtime through the pipeline's preflight hook, so the measured run takes
// the plan-installed branch on each send/receive while injecting nothing —
// the worst idle case. That the anchor digest does not move under the
// inert plan is pinned by DearPipeline.AnchorDigestHoldsOnBothTransports;
// the fault-tolerance campaign with faults live by
// CampaignRunner.FaultToleranceSweepDigestIsPinned.
#include <algorithm>
#include <cstdio>

#include "dear/app_builder.hpp"
#include "ft/fault_model.hpp"
#include "suites.hpp"
#include "topologies.hpp"

namespace dear::bench {

void run_ft_suite(Harness& h) {
  // Same noise policy as the obs suite: --quick runs share the host with a
  // parallel ctest sweep, so only the dedicated Release bench job enforces
  // the 5% contract.
  const double factor = h.quick() ? 1.50 : 1.05;
  constexpr double kEpsilonNs = 10.0;

  // The real victim (computer vision), an empty crash window and zero
  // call-fault probabilities, and no health service.
  ft::FaultPlan idle_plan;  // outlives the runs' bindings
  const auto install_idle_plan = [&idle_plan](AppBuilder& app) {
    for (const auto& node : app.nodes()) {
      if (node->name() == "cv") {
        idle_plan.victim = node->runtime().endpoint();
      }
      node->runtime().set_fault_plan(&idle_plan);
    }
  };

  const CaseResult& off =
      h.measure("ft/dear_pipeline/off", kDearAnchorFrames, [] { run_dear_anchor(); });
  CaseResult& probe = h.measure("ft/dear_pipeline/idle_probe", kDearAnchorFrames,
                                [&] { run_dear_anchor(install_idle_plan); });
  const CaseResult& off2 =
      h.measure("ft/dear_pipeline/off_again", kDearAnchorFrames, [] { run_dear_anchor(); });

  const double baseline = std::max(off.p50_ns, off2.p50_ns);
  const double overhead = baseline > 0.0 ? (probe.p50_ns / baseline - 1.0) * 100.0 : 0.0;
  Harness::counter(probe, "overhead_percent", overhead);
  char detail[192];
  std::snprintf(detail, sizeof(detail),
                "idle-plan p50 %.1fns/frame vs FT-free %.1fns/frame: %+.1f%% (gate %.0f%%)",
                probe.p50_ns, baseline, overhead, (factor - 1.0) * 100.0);
  h.gate("ft_idle_overhead_5pct", probe.p50_ns <= baseline * factor + kEpsilonNs, detail);
}

}  // namespace dear::bench
