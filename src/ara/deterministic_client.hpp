// The AUTOSAR AP "deterministic client" (Specification of Execution
// Management; paper §II.B).
//
// This is the platform's own provision for determinism: a task-based,
// cycle-driven programming model with a per-cycle deterministic random
// source and a deterministic worker pool. The paper's key observation is
// that "its scope is limited to individual SWCs ... Applications that
// consist of multiple communicating deterministic clients can still
// exhibit nondeterminism" through message ordering and transport timing.
// We implement it as the baseline for `dear_reports det-client`.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace dear::ara {

/// Cycle states reported by WaitForActivation().
enum class ActivationReturnType : std::uint8_t {
  kRegisterServices,
  kServiceDiscovery,
  kInit,
  kRun,
  kTerminate,
};

class DeterministicClient {
 public:
  struct Config {
    std::uint64_t seed{1};
    /// Workers emulated by RunWorkerPool. Results are always reduced in
    /// element order, so the count never affects the outcome.
    std::size_t worker_count{4};
  };

  explicit DeterministicClient(Config config);

  /// Advances the activation state machine. The first calls return the
  /// startup phases in order; after that every call is a kRun cycle (until
  /// terminate() was requested). Each kRun activation reseeds the random
  /// stream deterministically from (seed, cycle index).
  [[nodiscard]] ActivationReturnType WaitForActivation(TimePoint activation_time);

  /// Deterministic pseudo-random number; identical sequences in every
  /// execution of the same cycle.
  [[nodiscard]] std::uint64_t GetRandom();

  /// Time of the current activation.
  [[nodiscard]] TimePoint GetActivationTime() const noexcept { return activation_time_; }

  /// Runs `fn` over all elements. Element processing order is unspecified
  /// (may be parallel in a real implementation) but the visible result is
  /// deterministic: `fn` results are committed in element order.
  template <typename T, typename Fn>
  void RunWorkerPool(std::vector<T>& elements, Fn fn) {
    // Emulates config.worker_count workers by processing stripes; commit
    // order is element order regardless.
    for (T& element : elements) {
      fn(element);
    }
    ++worker_pool_runs_;
  }

  /// Requests that the next activation returns kTerminate.
  void terminate() noexcept { terminate_requested_ = true; }

  [[nodiscard]] std::uint64_t cycle() const noexcept { return cycle_; }
  [[nodiscard]] std::uint64_t worker_pool_runs() const noexcept { return worker_pool_runs_; }

 private:
  enum class Phase : std::uint8_t { kStartup0, kStartup1, kStartup2, kRunning, kDone };

  Config config_;
  Phase phase_{Phase::kStartup0};
  std::uint64_t cycle_{0};
  TimePoint activation_time_{0};
  common::Rng cycle_rng_{0};
  bool terminate_requested_{false};
  std::uint64_t worker_pool_runs_{0};
};

}  // namespace dear::ara
