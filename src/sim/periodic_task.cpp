#include "sim/periodic_task.hpp"

#include <utility>

namespace dear::sim {

PeriodicTask::PeriodicTask(Kernel& kernel, const PlatformClock& clock, Duration period,
                           Duration phase, Callback callback)
    : kernel_(kernel),
      clock_(clock),
      period_(period),
      phase_(phase),
      callback_(std::move(callback)) {}

void PeriodicTask::set_jitter(ExecTimeModel jitter, common::Rng rng) {
  jitter_ = jitter;
  rng_ = rng;
  has_jitter_ = true;
}

void PeriodicTask::start() {
  if (running_) {
    return;
  }
  running_ = true;
  activation_ = 0;
  arm_next();
}

void PeriodicTask::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  kernel_.cancel(pending_);
}

void PeriodicTask::arm_next() {
  // Nominal release on the local clock grid, converted to global kernel
  // time. Grid points already in the global past (the local clock is ahead
  // at start/restart time) are *missed* activations: firing them would
  // compress several periods into a burst at now(), which no periodic OS
  // callback does. Skip to the next future release instead.
  const GridRelease next =
      first_release_at_or_after(clock_, phase_, period_, activation_, kernel_.now());
  activation_ = next.index;
  TimePoint global_release = next.release;
  if (has_jitter_) {
    global_release += jitter_.sample(rng_);
  }
  pending_ = kernel_.schedule_at(global_release, [this] { fire(); });
}

void PeriodicTask::fire() {
  if (!running_) {
    return;
  }
  const std::uint64_t index = activation_++;
  arm_next();
  callback_(index, kernel_.now());
}

}  // namespace dear::sim
