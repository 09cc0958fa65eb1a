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
// observable outputs and logical tags. Its timing is fixed in pipeline.cpp:
// a radar scan every scenario::kSensorPeriod (50 ms), transactor deadlines
// of 5 ms (radar), 20 ms (tracker), 10 ms (controller), 5 ms (actuator)
// and 5 ms (console), scaled by the deadline_scale knob, L = 5 ms
// (transact::kLatencyBound) and E = 0 (one platform).
#pragma once

#include <cstdint>

#include "common/time.hpp"
#include "ft/fault_model.hpp"
#include "scenario/knobs.hpp"
#include "sim/fault_injection.hpp"

namespace dear::acc {

/// The ACC chain's configuration: the shared platform knobs
/// (scenario/knobs.hpp; the radar is the sensor and the service-fault
/// victim, frames counts radar scans) and the static-analysis hooks.
struct AccScenarioConfig : scenario::PlatformKnobs, scenario::RunHooks {};

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

  /// Injected radar faults (input-side).
  sim::SensorFaultCounts sensor_faults;

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

  /// Fault-tolerance accounting (degraded ticks are actuator ticks served
  /// by the ACC coast fallback).
  ft::Counters ft;

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return deadline_violations + tardy_messages + dropped_messages + remote_errors +
           wrong_commands;
  }
};

/// Runs the ACC chain to completion and returns the instrumented outcome.
[[nodiscard]] AccResult run_acc_pipeline(const AccScenarioConfig& config);

}  // namespace dear::acc
