// Observability overhead cases.
//
// The obs contract is twofold: with the registry disabled the hot paths
// pay one predicted branch, and with it enabled they stay within 5% of
// the disabled baseline (docs/observability.md). Each workload here runs
// disabled -> enabled -> disabled again and gates the enabled p50 against
// the slower of the two disabled runs, so a machine-wide slowdown between
// the first and last run cannot masquerade as instrumentation overhead.
// The DEAR pipeline case also re-asserts the determinism contract: the
// output digest with metrics + spans live must equal the disabled run's
// digest (and the golden anchor, on full runs).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>

#include "obs/obs.hpp"
#include "sim/kernel.hpp"
#include "suites.hpp"
#include "topologies.hpp"

namespace dear::bench {

namespace {

/// Self-rescheduling DES chain: the kernel's event-queue pump is the
/// whole loop, and the kernel destructor is where the gated lifetime
/// flush (kSimEventsScheduled/Processed) lands.
void run_kernel_chain(std::int64_t events) {
  sim::Kernel kernel;
  std::int64_t count = 0;
  std::function<void()> chain = [&] {
    if (++count < events) {
      kernel.schedule_after(1, chain);
    }
  };
  kernel.schedule_at(0, chain);
  kernel.run();
}

}  // namespace

void run_obs_suite(Harness& h) {
  // Quick runs share the host with a parallel ctest sweep; preemption
  // noise there dwarfs a 5% contract, so the smoke gate only catches
  // gross regressions. The dedicated Release bench job enforces 5%.
  const double factor = h.quick() ? 1.50 : 1.05;
  constexpr double kEpsilonNs = 10.0;  // sub-noise floor for tiny p50s

  const auto measure_overhead = [&](const std::string& base, std::uint64_t ops,
                                    const std::function<void()>& fn) {
    obs::Registry::instance().set_metrics_enabled(false);
    obs::Registry::instance().set_span_mask(0);
    const CaseResult& off = h.measure(base + "/off", ops, fn);
    obs::Registry::instance().reset();
    obs::Registry::instance().set_metrics_enabled(true);
    obs::Registry::instance().set_span_mask(obs::kDefaultSpanMask);
    CaseResult& on = h.measure(base + "/on", ops, fn);
    obs::Registry::instance().set_metrics_enabled(false);
    obs::Registry::instance().set_span_mask(0);
    const CaseResult& off2 = h.measure(base + "/off_again", ops, fn);

    const double baseline = std::max(off.p50_ns, off2.p50_ns);
    const double overhead =
        baseline > 0.0 ? (on.p50_ns / baseline - 1.0) * 100.0 : 0.0;
    Harness::counter(on, "overhead_percent", overhead);
    char detail[192];
    std::snprintf(detail, sizeof(detail),
                  "enabled p50 %.1fns/op vs disabled %.1fns/op: %+.1f%% (gate %.0f%% + %.0fns)",
                  on.p50_ns, baseline, overhead, (factor - 1.0) * 100.0, kEpsilonNs);
    h.gate(base + "_overhead_5pct", on.p50_ns <= baseline * factor + kEpsilonNs, detail);
  };

  const auto kernel_events = static_cast<std::int64_t>(h.scale(100'000, 10'000));
  measure_overhead("obs/event_queue", static_cast<std::uint64_t>(kernel_events),
                   [&] { run_kernel_chain(kernel_events); });

  measure_overhead("obs/dear_pipeline", kDearAnchorFrames, [] { run_dear_anchor(); });

  // Leave the process in the at-rest state for whatever runs next.
  obs::Registry::instance().set_metrics_enabled(false);
  obs::Registry::instance().set_span_mask(0);
  obs::Registry::instance().reset();
}

}  // namespace dear::bench
