// Declarative scenario descriptions for the campaign engine.
//
// A ScenarioSpec is one point in the evaluation space the paper's case
// study samples by hand: a workload (one of the three case-study
// pipelines), a transport deployment, and the full set of fault/stress
// knobs — clock drift, service-link latency/drop/duplication/ordering,
// execution-time and deadline scaling, and sensor faults. The scenario
// engine expands grids of these specs (campaign.hpp) and executes them on
// a worker pool (runner.hpp), turning the repo's hand-wired
// configurations into the ROADMAP's "as many scenarios as you can
// imagine" evaluation machine.
//
// Seeding contract (audited): every run derives its rng streams from the
// spec's two seeds only. The campaign expansion fills platform_seed as a
// pure function of (campaign seed, scenario index) and sensor_seed as a
// pure function of the campaign seed alone, so results are independent of
// worker count and thread scheduling, and scenarios that share a sensor
// configuration share the exact same input stream.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dear/config.hpp"
#include "scenario/knobs.hpp"

namespace dear::scenario {

/// The case-study pipeline a scenario runs.
enum class Workload : std::uint8_t {
  /// DEAR brake assistant (paper §IV.B) — deterministic by construction.
  kBrakeDear,
  /// Stock APD brake assistant (paper §IV.A) — the Figure 5 baseline.
  kBrakeNondet,
  /// DEAR adaptive cruise-control chain (events + methods + field).
  kAcc,
};

[[nodiscard]] std::string_view to_string(Workload workload) noexcept;
[[nodiscard]] std::string_view to_string(Transport transport) noexcept;

/// One scenario: a workload plus the platform knobs it runs under
/// (scenario/knobs.hpp).
struct ScenarioSpec : PlatformKnobs {
  /// Position in the campaign's scenario matrix (filled by expansion).
  std::uint64_t index{0};
  /// Human-readable identity, derived from the knobs when empty.
  std::string name;

  Workload workload{Workload::kBrakeDear};

  bool operator==(const ScenarioSpec&) const = default;

  /// True when the DEAR determinism guarantee applies: a reactor-based
  /// workload whose fault knobs stay within the paper's assumptions
  /// (reliable delivery, latency within the safe-to-process bound L,
  /// deadlines at or above WCET). Reordering, duplication, latency jitter
  /// within L, clock drift and *sensor* faults are all allowed — they must
  /// not change the logical results.
  [[nodiscard]] bool expect_deterministic() const noexcept;

  /// Scenarios with the same digest group must produce bit-identical
  /// output and tag digests when expect_deterministic() holds — the
  /// campaign engine's first-class invariant. The key covers exactly the
  /// knobs that may legitimately change observable behavior: workload,
  /// sample count, sensor input stream, and deadline scaling.
  [[nodiscard]] std::uint64_t digest_group() const noexcept;

  /// Derived name, e.g. "dear/someip/drop0.010/dup0.100/dl0.80/sf/s42".
  [[nodiscard]] std::string describe() const;
};

/// Worst-case service-link latency tolerated by the default transactor
/// configuration: the paper's L bound.
inline constexpr Duration kSvcLatencyBound = transact::kLatencyBound;

/// Pure derivation of a per-scenario sub-seed from the campaign seed, the
/// scenario index and a stream label. Independent of execution order by
/// construction.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t campaign_seed, std::uint64_t scenario_index,
                                        std::string_view stream) noexcept;

}  // namespace dear::scenario
