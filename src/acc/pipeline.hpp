// The adaptive cruise-control chain built on DEAR, entirely from
// ServiceInterface descriptors and the AppBuilder.
//
//   radar ──scan──▶ tracker ──tracks──▶ acc ──command──▶ actuator
//                                        ▲
//                        console ──get/set/notify (target_speed field)
//
// Five SWC processes on the compute platform: the radar SWC is the sensor
// boundary (scans are tagged with the physical time of reception, like the
// brake assistant's Video Adapter), tracker and ACC controller are pure
// logic reactors, the actuator consumes the command stream, and a driver
// console polls and updates the cruise set-point through the controller's
// target_speed *field* — so one run exercises event, method and field
// transactors derived from the same descriptors.
//
// Like the brake pipeline, the chain runs unchanged over SOME/IP or the
// zero-copy in-process transport (Transport::kLocal), with bit-identical
// observable outputs and logical tags.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "dear/config.hpp"
#include "scenario/knobs.hpp"

namespace dear {
class AppBuilder;
namespace analysis {
struct StaticPlan;
}
}

namespace dear::acc {

/// The ACC chain's configuration: the shared platform knobs
/// (scenario/knobs.hpp; the radar is the sensor and the service-fault
/// victim, frames counts radar scans) plus the chain's own timing.
struct AccScenarioConfig : scenario::PlatformKnobs {
  Duration period{50 * kMillisecond};
  Duration radar_jitter{500 * kMicrosecond};
  Duration link_latency_min{200 * kMicrosecond};
  Duration link_latency_max{800 * kMicrosecond};

  // Transactor deadlines (scaled by deadline_scale) and safe-to-process
  // bounds.
  Duration radar_deadline{5 * kMillisecond};
  Duration tracker_deadline{20 * kMillisecond};
  Duration acc_deadline{10 * kMillisecond};
  Duration actuator_deadline{5 * kMillisecond};
  Duration console_deadline{5 * kMillisecond};
  Duration latency_bound{5 * kMillisecond};
  Duration clock_error_bound{0};

  /// Console cadence: how often the set-point is polled resp. stepped
  /// through the field's get/set methods (logical time).
  Duration console_poll_period{500 * kMillisecond};
  Duration console_update_period{2000 * kMillisecond};

  transact::UntaggedPolicy untagged{transact::UntaggedPolicy::kFail};

  /// Bench-only: install an inert fault plan (real victim, empty crash
  /// window, zero probabilities) WITHOUT the health service, to measure
  /// the pure hook overhead on the hot path.
  bool ft_idle_probe{false};

  // --- static-analysis hooks (src/analysis/) ---------------------------------
  /// Invoked after the app is fully wired, before validate()/start().
  std::function<void(AppBuilder&)> preflight{};
  /// Construct and wire the application, run preflight, and return
  /// without starting drivers or the radar (no event executes).
  bool build_only{false};
  /// When set, every node consumes its level table from this compiled
  /// plan (analysis::build_plan) instead of re-deriving it at assembly;
  /// traces and digests are bit-identical either way. The plan must match
  /// the constructed topology (stale plans throw).
  const analysis::StaticPlan* schedule_plan{nullptr};
};

struct AccResult {
  std::uint64_t scans_sent{0};
  /// Commands received by the actuator (== scans_sent when nothing drops).
  std::uint64_t commands{0};
  std::uint64_t brake_interventions{0};
  /// Commands that differ from the drop-free reference chain.
  std::uint64_t wrong_commands{0};

  // Field traffic observed by the console.
  std::uint64_t field_gets{0};
  std::uint64_t field_sets{0};
  std::uint64_t field_notifies{0};

  // Injected radar faults (input-side).
  std::uint64_t sensor_dropped{0};
  std::uint64_t sensor_stuck{0};
  std::uint64_t sensor_noisy{0};

  // Observable protocol errors (summed over every transactor in the app).
  std::uint64_t deadline_violations{0};
  std::uint64_t tardy_messages{0};
  std::uint64_t untagged_messages{0};
  std::uint64_t dropped_messages{0};
  /// Remote/communication errors on method futures (field get/set calls).
  std::uint64_t remote_errors{0};

  /// Order-sensitive digest over every actuator command (scan id, accel,
  /// braking, active set-point).
  std::uint64_t output_digest{0};
  /// Digest over the actuator tags relative to the radar arrival tags.
  std::uint64_t tag_digest{0};
  /// Digest over the console's get/set/notify observations.
  std::uint64_t console_digest{0};

  // Fault-tolerance accounting (zero when no plan is installed).
  std::uint64_t ft_crash_drops{0};
  std::uint64_t ft_call_faults{0};
  std::uint64_t ft_retries{0};
  /// Actuator ticks served by the ACC coast fallback (radar dead).
  std::uint64_t ft_degraded_ticks{0};
  /// Supervisor transitions into the dead state.
  std::uint64_t ft_failovers{0};

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return deadline_violations + tardy_messages + dropped_messages + remote_errors +
           wrong_commands;
  }
};

/// Runs the ACC chain to completion and returns the instrumented outcome.
[[nodiscard]] AccResult run_acc_pipeline(const AccScenarioConfig& config);

}  // namespace dear::acc
