// Periodic OS callback model.
//
// Each SWC in the stock brake assistant "sets up a periodic callback so
// that the OS triggers the SWC logic every 50 ms" (paper §IV.A). The phase
// of that callback relative to the other SWCs — plus per-activation
// scheduler jitter — is exactly what drives the error-rate variance in
// Figure 5, so both are first-class parameters here.
//
// Nominal activation k fires at phase + k*period on the platform's *local*
// clock, plus a jitter draw. Jitter affects release time only; the nominal
// grid does not accumulate error. Grid points that are already in the
// global past when the task is (re)armed — e.g. the local clock is ahead
// of global time at startup — count as missed activations and are
// skipped, never fired as a burst.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/clock_model.hpp"
#include "sim/exec_time_model.hpp"
#include "sim/kernel.hpp"

namespace dear::sim {

/// One nominal release of a periodic grid: activation `index` at global
/// time `release`.
struct GridRelease {
  std::uint64_t index{0};
  TimePoint release{0};
};

/// The first grid release at or after global time `t`, searching from
/// activation `index`: activation k is nominally released at phase +
/// k*period on `clock`, and releases before `t` are missed activations.
/// This is the arm rule of PeriodicTask; scenario::Testbed::first_release
/// uses it to find sensor sample 0's nominal release (the capture-grid
/// anchor of fault windows and health timers) before the sensor starts.
[[nodiscard]] inline GridRelease first_release_at_or_after(const PlatformClock& clock,
                                                           Duration phase, Duration period,
                                                           std::uint64_t index, TimePoint t) {
  TimePoint release = clock.global_from_local(phase + static_cast<TimePoint>(index) * period);
  while (release < t) {
    ++index;
    release = clock.global_from_local(phase + static_cast<TimePoint>(index) * period);
  }
  return {index, release};
}

class PeriodicTask {
 public:
  /// `callback(activation_index, release_global_time)` runs on the kernel.
  using Callback = std::function<void(std::uint64_t, TimePoint)>;

  PeriodicTask(Kernel& kernel, const PlatformClock& clock, Duration period, Duration phase,
               Callback callback);

  /// Adds per-activation release jitter (default: none).
  void set_jitter(ExecTimeModel jitter, common::Rng rng);

  void start();
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t activations() const noexcept { return activation_; }
  [[nodiscard]] Duration period() const noexcept { return period_; }

 private:
  void arm_next();
  void fire();

  Kernel& kernel_;
  const PlatformClock& clock_;
  Duration period_;
  Duration phase_;
  Callback callback_;
  bool has_jitter_{false};
  ExecTimeModel jitter_{ExecTimeModel::constant(0)};
  common::Rng rng_{0};
  EventId pending_{0};
  std::uint64_t activation_{0};
  bool running_{false};
};

}  // namespace dear::sim
