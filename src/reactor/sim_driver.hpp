// DES execution driver.
//
// Couples one reactor Environment to the simulation kernel: tags are
// processed by kernel callbacks at their physical (= simulation) time, so
// "no events are handled before physical time exceeds their tag" holds by
// construction. Several environments (one per SWC process, as deployed in
// the paper's case study) can share one kernel — this is the co-simulation
// of distributed reactor programs.
//
// start() attaches the driver to the scheduler (Scheduler::attach): the
// kernel thread becomes its single owner, so the tag loop runs without
// locks, and the scheduler calls back into the driver directly, to re-arm
// the kernel wake-up when an earlier event arrives and to sample each
// reaction's modeled cost with the driver's RNG. The destructor detaches
// it, so an environment may outlive its driver.
//
// Modeled execution cost: reactions tagged with set_modeled_cost consume
// platform time; the driver tracks a busy-until watermark and defers the
// next tag accordingly. Cost inflation beyond a reaction's deadline thus
// surfaces as deadline violations, exactly as computational overload would
// on the real platform.
#pragma once

#include "common/rng.hpp"
#include "reactor/environment.hpp"
#include "sim/kernel.hpp"

namespace dear::reactor {

class SimDriver {
 public:
  SimDriver(Environment& environment, sim::Kernel& kernel, common::Rng cost_rng);
  ~SimDriver();

  SimDriver(const SimDriver&) = delete;
  SimDriver& operator=(const SimDriver&) = delete;

  /// Assembles the environment (if needed) and starts execution at the
  /// current kernel time.
  void start();

  [[nodiscard]] bool finished() const { return environment_.scheduler().finished(); }
  [[nodiscard]] TimePoint busy_until() const noexcept { return busy_until_; }
  [[nodiscard]] Environment& environment() noexcept { return environment_; }

  /// Total modeled execution time consumed so far.
  [[nodiscard]] Duration consumed_cost() const noexcept { return consumed_cost_; }

 private:
  friend class Scheduler;  // calls arm() and samples costs with cost_rng_

  void arm();
  void on_wake();

  Environment& environment_;
  sim::Kernel& kernel_;
  common::Rng cost_rng_;
  TimePoint busy_until_{0};
  Duration consumed_cost_{0};
  sim::EventId armed_event_{0};
  TimePoint armed_time_{kTimeMax};
  bool armed_{false};
  bool started_{false};
};

}  // namespace dear::reactor
