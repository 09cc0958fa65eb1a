// Fault-tolerance overhead and determinism cases.
//
// The FT contract mirrors the obs one: with no service faults configured
// the injection hooks and retry plumbing must stay within 5% of the
// FT-free hot path, and the anchor digests must not move. The idle probe
// installs an inert fault plan on every runtime through the pipeline's
// preflight hook, so the measured run takes the plan-installed branch on
// each send/receive while injecting nothing — the worst idle case. The suite then runs the
// fault-tolerance campaign itself (faults live) and gates zero
// determinism violations plus report-digest equality at 1/2/4 workers.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "brake/dear_pipeline.hpp"
#include "dear/app_builder.hpp"
#include "ft/fault_model.hpp"
#include "scenario/presets.hpp"
#include "scenario/runner.hpp"
#include "suites.hpp"

namespace dear::bench {

namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4};

/// Fixed-seed DEAR brake pipeline over SOME/IP (the bench_all anchor
/// workload), optionally with an inert fault plan installed: the real
/// victim (computer vision), an empty crash window and zero call-fault
/// probabilities, and no health service.
std::uint64_t run_dear_digest(std::uint64_t frames, bool idle_probe) {
  brake::DearScenarioConfig config;
  config.frames = frames;
  config.platform_seed = 7;
  config.sensor_seed = config.platform_seed + 1000;
  ft::FaultPlan idle_plan;  // outlives the run's bindings
  if (idle_probe) {
    config.preflight = [&idle_plan](AppBuilder& app) {
      for (const auto& node : app.nodes()) {
        if (node->name() == "cv") {
          idle_plan.victim = node->runtime().endpoint();
        }
        node->runtime().set_fault_plan(&idle_plan);
      }
    };
  }
  return brake::run_dear_pipeline(config).output_digest;
}

}  // namespace

void run_ft_suite(Harness& h, const FtSuiteOptions& options) {
  // Same noise policy as the obs suite: --quick runs share the host with a
  // parallel ctest sweep, so only the dedicated Release bench job enforces
  // the 5% contract.
  const double factor = h.quick() ? 1.50 : 1.05;
  constexpr double kEpsilonNs = 10.0;
  char detail[192];

  // --- idle overhead: FT-free vs inert-plan triple ---------------------------
  const std::uint64_t frames = options.pipeline_frames;
  std::uint64_t digest_off = 0;
  std::uint64_t digest_probe = 0;
  const CaseResult& off = h.measure("ft/dear_pipeline/off", frames,
                                    [&] { digest_off = run_dear_digest(frames, false); });
  CaseResult& probe = h.measure("ft/dear_pipeline/idle_probe", frames,
                                [&] { digest_probe = run_dear_digest(frames, true); });
  const CaseResult& off2 = h.measure("ft/dear_pipeline/off_again", frames,
                                     [&] { digest_off = run_dear_digest(frames, false); });

  const double baseline = std::max(off.p50_ns, off2.p50_ns);
  const double overhead = baseline > 0.0 ? (probe.p50_ns / baseline - 1.0) * 100.0 : 0.0;
  Harness::counter(probe, "overhead_percent", overhead);
  std::snprintf(detail, sizeof(detail),
                "idle-plan p50 %.1fns/frame vs FT-free %.1fns/frame: %+.1f%% (gate %.0f%%)",
                probe.p50_ns, baseline, overhead, (factor - 1.0) * 100.0);
  h.gate("ft_idle_overhead_5pct", probe.p50_ns <= baseline * factor + kEpsilonNs, detail);

  std::snprintf(detail, sizeof(detail), "digest %016llx with idle plan, %016llx without",
                static_cast<unsigned long long>(digest_probe),
                static_cast<unsigned long long>(digest_off));
  h.gate("ft_idle_digest_invariant", digest_probe == digest_off, detail);
  if (options.golden_digest != 0) {
    std::snprintf(detail, sizeof(detail), "digest %016llx with idle plan, golden %016llx",
                  static_cast<unsigned long long>(digest_probe),
                  static_cast<unsigned long long>(options.golden_digest));
    h.gate("ft_idle_digest_anchor", digest_probe == options.golden_digest, detail);
  }

  // --- fault-tolerance campaign: violations + worker invariance --------------
  // Faults live: crash/restart windows, per-call error/omission dice,
  // retry budgets and the degraded-mode fallbacks all execute. The digest
  // groups span transports, so a single zero-violation run already proves
  // someip == local; the worker sweep proves schedule independence.
  const auto campaign =
      h.quick() ? scenario::presets::fault_tolerance_smoke(options.sweep_frames,
                                                           options.sweep_seed)
                : scenario::presets::fault_tolerance_sweep(options.sweep_frames,
                                                           options.sweep_seed);
  const auto scenario_count = static_cast<std::uint64_t>(campaign.expand().size());
  std::uint64_t serial_digest = 0;
  std::size_t serial_violations = 0;
  bool digests_identical = true;
  for (const unsigned workers : kWorkerCounts) {
    char name[64];
    std::snprintf(name, sizeof(name), "ft_sweep/%llux%lluf/%uworkers",
                  static_cast<unsigned long long>(scenario_count),
                  static_cast<unsigned long long>(options.sweep_frames), workers);
    std::uint64_t digest = 0;
    std::size_t violations = 0;
    h.measure(name, scenario_count, [&] {
      scenario::RunnerOptions runner_options;
      runner_options.workers = workers;
      const auto report = scenario::CampaignRunner(runner_options).run(campaign);
      digest = report.report_digest();
      violations = report.violations.size();
    });
    if (workers == 1) {
      serial_digest = digest;
      serial_violations = violations;
    } else if (digest != serial_digest || violations != serial_violations) {
      digests_identical = false;
    }
  }
  std::snprintf(detail, sizeof(detail), "%zu violation(s) across %llu scenario(s)",
                serial_violations, static_cast<unsigned long long>(scenario_count));
  h.gate("ft_sweep_zero_violations", serial_violations == 0, detail);
  std::snprintf(detail, sizeof(detail), "report digest %016llx identical at 1/2/4 workers: %s",
                static_cast<unsigned long long>(serial_digest),
                digests_identical ? "yes" : "NO");
  h.gate("ft_sweep_digest_workers", digests_identical, detail);
}

}  // namespace dear::bench
