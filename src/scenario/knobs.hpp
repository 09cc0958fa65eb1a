// The platform knobs shared by every scenario and every case-study pipeline.
//
// Each knob is declared exactly once, here. ScenarioSpec (scenario/spec.hpp)
// and the three pipeline configs — brake::DearScenarioConfig,
// brake::ScenarioConfig and acc::AccScenarioConfig — all derive from
// PlatformKnobs, so mapping a spec onto a pipeline is a copy of the base
// part, and for_each_knob below is the one table the scenario file format
// (scenario/spec_json.cpp) is read and written from.
//
// Not every pipeline uses every knob. Ignored knobs are accepted and have
// no effect:
//   - brake::ScenarioConfig (the stock-APD baseline: no transactors, no
//     local deployment, no fault-tolerance layer) ignores transport,
//     exec_time_scale, deadline_scale, service_faults, retry and fault_seed;
//   - acc::AccScenarioConfig (the radar sends scans, not pixel slabs)
//     ignores camera_payload_bytes;
//   - brake::DearScenarioConfig uses all of them.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>

#include "common/time.hpp"
#include "ft/fault_model.hpp"
#include "sim/fault_injection.hpp"

namespace dear {
class AppBuilder;
}

namespace dear::scenario {

/// Transport deployment for the service traffic.
enum class Transport : std::uint8_t { kSomeIp, kLocal };

struct PlatformKnobs {
  /// Service-traffic deployment: SOME/IP over the simulated network, or
  /// the zero-copy in-process LocalBinding for the co-located SWCs (the
  /// sensor link stays on the network either way).
  Transport transport{Transport::kSomeIp};
  /// Sensor samples fed into the pipeline (camera frames resp. radar scans).
  std::uint64_t frames{2000};

  /// Seed for all platform-side streams (scheduling jitter, network
  /// latency, execution-time draws, clock drift). Derived from
  /// (campaign seed, scenario index) by the campaign expansion.
  std::uint64_t platform_seed{1};
  /// Seed for the sensor input stream (capture timing, sensor clock drift
  /// and fault decisions). Shared by every scenario of a campaign so that
  /// digest invariants compare like with like.
  std::uint64_t sensor_seed{5000};

  /// Platform clock drift bound (ppm); the actual drifts are drawn per
  /// seed (sensor platform; the stock-APD baseline also draws its compute
  /// platform's from it). Immaterial to the DEAR logical results: sensor
  /// tags follow physical reception.
  double clock_drift_ppm{30.0};

  // Service-link network model (the SWC-to-SWC traffic). As long as
  // svc_latency_max stays below the transactors' latency bound these are
  // semantics-preserving for DEAR.
  Duration svc_latency_min{5 * kMicrosecond};
  Duration svc_latency_max{50 * kMicrosecond};
  /// Per-message drop probability. Drops violate the reliable-delivery
  /// assumption: samples are lost observably, which ones depends on the
  /// platform seed.
  double net_drop_probability{0.0};
  /// Per-message duplication probability. Duplicates carry the same wire
  /// tag and are absorbed deterministically.
  double net_duplicate_probability{0.0};
  /// Enforce in-order delivery (default off: the paper's nondeterminism
  /// source 3).
  bool net_in_order{false};

  /// Scale on the modeled SWC execution times (stress knob).
  double exec_time_scale{1.0};
  /// Scale on all transactor deadlines (latency/error trade-off knob).
  double deadline_scale{1.0};

  /// Sensor faults, applied at the camera/radar front-end (input-side:
  /// decided from sensor_seed).
  sim::SensorFaultModel sensor_faults{};

  /// Service faults at the pipeline's victim node (crash/restart in
  /// wire-tag time, per-call error/omission, subscription churn). Enabling
  /// any knob also deploys the health monitor and the pipeline's fallback.
  ft::ServiceFaultModel service_faults{};
  /// Retry budget installed on the pipeline's tolerant proxies.
  ft::RetryBudget retry{};
  /// Seed for the per-call fault die. Derived from the campaign seed
  /// alone (like sensor_seed), so scenarios in one digest group share the
  /// exact same fault decisions.
  std::uint64_t fault_seed{1};

  /// Sensor data plane: per-frame loaned pixel slab size in bytes (0 =
  /// metadata only). The metadata stream and its digests are unchanged
  /// unless slab-ring exhaustion drops frames.
  std::uint64_t camera_payload_bytes{0};

  bool operator==(const PlatformKnobs&) const = default;
};

/// Static-analysis hooks of the two DEAR pipeline configs (src/analysis/),
/// applied by Testbed::run. Not knobs: no scenario file carries them.
struct RunHooks {
  /// Invoked after the app is fully wired, before validate()/start(). The
  /// static verifier uses it to extract the fact table from the genuine
  /// reactor graphs without executing anything.
  std::function<void(AppBuilder&)> preflight{};
  /// Construct and wire the application, run preflight, and return
  /// without starting drivers or the sensor (no event executes).
  bool build_only{false};
};

/// Where a knob lives in the scenario file format.
struct KnobKey {
  /// Enclosing nested JSON object; empty for a top-level key.
  std::string_view object;
  /// JSON key. Durations are integer nanoseconds and carry an _ns suffix.
  std::string_view name;
  /// The value is a probability and must lie in [0, 1].
  bool probability{false};
};

/// The knob table: calls visit(KnobKey, field) once per knob leaf, in file
/// order, with the members of one nested object adjacent. Accepts
/// PlatformKnobs or any type derived from it, const or not. A knob added
/// to PlatformKnobs needs one line here to be read, written and
/// round-trip tested.
template <typename Knobs, typename Visitor>
  requires std::derived_from<std::remove_const_t<Knobs>, PlatformKnobs>
constexpr void for_each_knob(Knobs& knobs, Visitor&& visit) {
  constexpr bool kProbability = true;
  visit(KnobKey{{}, "transport"}, knobs.transport);
  visit(KnobKey{{}, "frames"}, knobs.frames);
  visit(KnobKey{{}, "platform_seed"}, knobs.platform_seed);
  visit(KnobKey{{}, "sensor_seed"}, knobs.sensor_seed);
  visit(KnobKey{{}, "clock_drift_ppm"}, knobs.clock_drift_ppm);
  visit(KnobKey{{}, "svc_latency_min_ns"}, knobs.svc_latency_min);
  visit(KnobKey{{}, "svc_latency_max_ns"}, knobs.svc_latency_max);
  visit(KnobKey{{}, "net_drop_probability", kProbability}, knobs.net_drop_probability);
  visit(KnobKey{{}, "net_duplicate_probability", kProbability}, knobs.net_duplicate_probability);
  visit(KnobKey{{}, "net_in_order"}, knobs.net_in_order);
  visit(KnobKey{{}, "exec_time_scale"}, knobs.exec_time_scale);
  visit(KnobKey{{}, "deadline_scale"}, knobs.deadline_scale);
  auto& sensor = knobs.sensor_faults;
  visit(KnobKey{"sensor_faults", "drop_probability", kProbability}, sensor.drop_probability);
  visit(KnobKey{"sensor_faults", "stuck_probability", kProbability}, sensor.stuck_probability);
  visit(KnobKey{"sensor_faults", "noise_probability", kProbability}, sensor.noise_probability);
  auto& service = knobs.service_faults;
  visit(KnobKey{"service_faults", "crash_at_ns"}, service.crash_at);
  visit(KnobKey{"service_faults", "restart_after_ns"}, service.restart_after);
  visit(KnobKey{"service_faults", "call_error_probability", kProbability},
        service.call_error_probability);
  visit(KnobKey{"service_faults", "call_omission_probability", kProbability},
        service.call_omission_probability);
  visit(KnobKey{"service_faults", "churn_period_ns"}, service.churn_period);
  visit(KnobKey{"retry", "max_attempts"}, knobs.retry.max_attempts);
  visit(KnobKey{"retry", "backoff_base_ns"}, knobs.retry.backoff_base);
  visit(KnobKey{"retry", "timeout_ns"}, knobs.retry.timeout);
  visit(KnobKey{{}, "fault_seed"}, knobs.fault_seed);
  visit(KnobKey{{}, "camera_payload_bytes"}, knobs.camera_payload_bytes);
}

}  // namespace dear::scenario
