// Error instrumentation for the brake assistant experiments.
//
// The four error categories of Figure 5, plus bookkeeping the harnesses
// use to compute prevalence and validate outputs.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "ft/fault_model.hpp"
#include "sim/fault_injection.hpp"

namespace dear::brake {

struct ErrorCounters {
  /// A frame was overwritten before Preprocessing consumed it (includes
  /// frames lost in the Video Adapter's input buffer, which Preprocessing
  /// therefore never saw).
  std::uint64_t dropped_frames_preprocessing{0};
  /// A frame or lane sample was overwritten before Computer Vision
  /// consumed it, or consumed without its counterpart.
  std::uint64_t dropped_frames_cv{0};
  /// Computer Vision processed a frame and lane information derived from
  /// different frames.
  std::uint64_t input_mismatches_cv{0};
  /// A vehicle list was overwritten before EBA consumed it.
  std::uint64_t dropped_vehicles_eba{0};

  [[nodiscard]] std::uint64_t total() const noexcept {
    return dropped_frames_preprocessing + dropped_frames_cv + input_mismatches_cv +
           dropped_vehicles_eba;
  }

  /// Error prevalence in percent, as plotted in Figure 5.
  [[nodiscard]] double prevalence_percent(std::uint64_t frames) const noexcept {
    if (frames == 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(total()) / static_cast<double>(frames);
  }

  ErrorCounters& operator+=(const ErrorCounters& other) noexcept {
    dropped_frames_preprocessing += other.dropped_frames_preprocessing;
    dropped_frames_cv += other.dropped_frames_cv;
    input_mismatches_cv += other.input_mismatches_cv;
    dropped_vehicles_eba += other.dropped_vehicles_eba;
    return *this;
  }
};

/// Full outcome of one pipeline execution.
struct PipelineResult {
  ErrorCounters errors;
  std::uint64_t frames_sent{0};
  std::uint64_t frames_processed_eba{0};
  std::uint64_t brake_commands{0};
  /// Brake decisions that differ from the drop-free reference pipeline
  /// (consequence of misaligned inputs).
  std::uint64_t wrong_decisions{0};
  /// Order-sensitive digest over (frame_id, brake, intensity) of every EBA
  /// output — identical digests mean identical observable behavior.
  std::uint64_t output_digest{0};
  /// Digest over the *relative* logical tags of EBA outputs: for each
  /// frame, (EBA tag − adapter arrival tag, microstep). Physical-action
  /// tags are inputs to the reactor system (they follow the camera and
  /// network timing), but every downstream tag must sit at a fixed,
  /// deterministic offset from them. DEAR pipeline only; 0 otherwise.
  std::uint64_t tag_digest{0};
  /// End-to-end latency, capture to brake command (ns).
  common::RunningStats latency;
  /// Decision staleness at EBA: newest captured frame id minus the frame
  /// id the decision was computed from (in frames). Grows with input
  /// buffer depth — the flip side of fewer drops.
  common::RunningStats staleness;

  // DEAR-specific observable protocol errors.
  std::uint64_t deadline_violations{0};
  std::uint64_t tardy_messages{0};
  std::uint64_t untagged_messages{0};

  /// Injected sensor faults (input-side; identical across platform seeds
  /// for a fixed camera seed and fault model).
  sim::SensorFaultCounts sensor_faults;

  // Sensor data plane (zero unless camera_payload_bytes is configured).
  std::uint64_t camera_payload_frames{0};
  std::uint64_t camera_payload_drops{0};

  /// Fault-tolerance accounting (DEAR pipeline only; degraded ticks are
  /// EBA ticks served by the hold-last-safe-command fallback).
  ft::Counters ft;

  [[nodiscard]] double error_prevalence_percent() const noexcept {
    return errors.prevalence_percent(frames_sent);
  }
};

}  // namespace dear::brake
