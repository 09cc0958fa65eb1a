// Discrete-event executor with modeled dispatch nondeterminism.
//
// In the real AP runtime, each incoming method call is handed to a worker
// thread; which call runs first is up to the OS scheduler. The simulation
// models this with a per-dispatch jitter draw: post(task) schedules the
// task at now() + jitter. Two tasks posted back-to-back can therefore
// execute in either order — reproducibly, because the jitter stream is
// seeded.
#pragma once

#include "common/executor.hpp"
#include "common/rng.hpp"
#include "sim/exec_time_model.hpp"
#include "sim/kernel.hpp"

namespace dear::sim {

class SimExecutor final : public common::Executor {
 public:
  /// Default jitter of [0, 200us] approximates thread wake-up latency
  /// spread on a loaded quad-core Atom (the paper's evaluation platform).
  SimExecutor(Kernel& kernel, common::Rng rng,
              ExecTimeModel jitter = ExecTimeModel::uniform(0, 200 * kMicrosecond))
      : kernel_(kernel), rng_(rng), jitter_(jitter) {}

  void post(Task task) override {
    kernel_.schedule_after(jitter_.sample(rng_), std::move(task));
  }

  void post_after(Duration delay, Task task) override {
    kernel_.schedule_after(delay + jitter_.sample(rng_), std::move(task));
  }

  [[nodiscard]] TimePoint now() const override { return kernel_.now(); }
  [[nodiscard]] bool single_threaded() const noexcept override { return true; }

  [[nodiscard]] Kernel& kernel() noexcept { return kernel_; }

 private:
  Kernel& kernel_;
  common::Rng rng_;
  ExecTimeModel jitter_;
};

/// Jitter-free variant: tasks run in post order at the current time. Used
/// by the deterministic single-threaded processing mode (kEventSingleThread
/// with FIFO semantics) and by unit tests.
class ImmediateSimExecutor final : public common::Executor {
 public:
  explicit ImmediateSimExecutor(Kernel& kernel) : kernel_(kernel) {}

  void post(Task task) override { kernel_.schedule_after(0, std::move(task)); }
  void post_after(Duration delay, Task task) override {
    kernel_.schedule_after(delay, std::move(task));
  }
  [[nodiscard]] TimePoint now() const override { return kernel_.now(); }
  [[nodiscard]] bool single_threaded() const noexcept override { return true; }

 private:
  Kernel& kernel_;
};

}  // namespace dear::sim
