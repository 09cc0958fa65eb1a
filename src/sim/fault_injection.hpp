// Sensor fault injection for the simulated front-ends (camera, radar).
//
// The paper's determinism claim is about *coordination*: the DEAR pipeline
// computes the same outputs from the same sensor input stream regardless
// of platform timing. Sensor faults are therefore modeled as part of the
// *input* — every fault decision draws from a dedicated stream of the
// sensor-side rng, so two runs that share the sensor seed and fault model
// see the exact same faulty sample sequence no matter what the platform
// does. This is what lets scenario campaigns sweep fault grids while still
// asserting bit-identical DEAR digests across platform seeds, transports
// and worker counts.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace dear::sim {

/// Per-sample fault probabilities of a sensor front-end. All zero by
/// default, i.e. a nominal sensor. The probabilities are cumulative per
/// sample (drop is checked first, then stuck, then noise), so their sum
/// must stay <= 1.
struct SensorFaultModel {
  /// Sample is never emitted (sensor blackout / transfer failure).
  double drop_probability{0.0};
  /// The previous sample is emitted again verbatim (frozen sensor).
  double stuck_probability{0.0};
  /// The sample is emitted with corrupted content (bit flips, glare);
  /// identity metadata (frame/scan id) stays intact.
  double noise_probability{0.0};

  [[nodiscard]] bool any() const noexcept {
    return drop_probability > 0.0 || stuck_probability > 0.0 || noise_probability > 0.0;
  }

  bool operator==(const SensorFaultModel&) const = default;
};

/// Faults a sensor front-end injected so far, per outcome.
struct SensorFaultCounts {
  std::uint64_t dropped{0};
  std::uint64_t stuck{0};
  std::uint64_t noisy{0};

  [[nodiscard]] std::uint64_t total() const noexcept { return dropped + stuck + noisy; }
};

/// Draws one fault decision per sensor sample. One uniform draw decides
/// the outcome, so the decision sequence for a given (seed, model) is a
/// pure function of the sample index.
class SensorFaultInjector {
 public:
  enum class Outcome : std::uint8_t { kNominal, kDrop, kStuck, kNoisy };

  SensorFaultInjector(SensorFaultModel model, common::Rng rng) noexcept
      : model_(model), rng_(rng) {}

  [[nodiscard]] Outcome next() noexcept {
    if (!model_.any()) {
      return Outcome::kNominal;
    }
    const double u = rng_.uniform01();
    if (u < model_.drop_probability) {
      ++counts_.dropped;
      return Outcome::kDrop;
    }
    if (u < model_.drop_probability + model_.stuck_probability) {
      ++counts_.stuck;
      return Outcome::kStuck;
    }
    if (u < model_.drop_probability + model_.stuck_probability + model_.noise_probability) {
      ++counts_.noisy;
      return Outcome::kNoisy;
    }
    return Outcome::kNominal;
  }

  /// Nonzero corruption mask for a kNoisy sample (content perturbation is
  /// input-side randomness, hence drawn here and not platform-side).
  [[nodiscard]] std::uint64_t noise_word() noexcept {
    const std::uint64_t word = rng_();
    return word != 0 ? word : 0x5851f42d4c957f2dULL;
  }

  [[nodiscard]] const SensorFaultModel& model() const noexcept { return model_; }
  [[nodiscard]] const SensorFaultCounts& counts() const noexcept { return counts_; }

 private:
  SensorFaultModel model_;
  common::Rng rng_;
  SensorFaultCounts counts_;
};

}  // namespace dear::sim
