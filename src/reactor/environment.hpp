// Environment: owns the reactor topology and the scheduler.
//
// Lifecycle: construct reactors → connect ports → assemble() (validates
// the topology and computes the APG levels) → run() for threaded
// execution, or attach a SimDriver for discrete-event execution.
//
// The environment owns one DependencyGraph, built the first time anything
// asks for it — the static verifier (AppBuilder::validate()) or
// assemble() — and shared by every later user. Building it freezes the
// wiring: connect, connect_delayed and new reactors, ports, actions,
// reactions or reaction triggers/reads/writes throw std::logic_error from
// then on, so what was validated is what runs.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "reactor/physical_clock.hpp"
#include "reactor/port.hpp"
#include "reactor/scheduler.hpp"
#include "reactor/tag.hpp"

namespace dear::reactor {

struct SchedulePlan;

class Environment {
 public:
  struct Config {
    /// Keep running while the event queue is empty (needed whenever
    /// physical actions may be scheduled from outside).
    bool keepalive{false};
    /// Logical execution horizon; negative = unbounded.
    Duration timeout{-1};
    /// Record an execution trace (reaction fqn per tag).
    bool tracing{false};
  };

  explicit Environment(PhysicalClock& clock) : Environment(clock, Config{}) {}
  Environment(PhysicalClock& clock, Config config);
  ~Environment();  // out of line: owned relay reactors need the full type

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Connects `from` to `to`. Must be called before the graph is built
  /// (validate() or assemble()); `to` must not already have an inward
  /// binding.
  template <typename T>
  void connect(Port<T>& from, Port<T>& to) {
    if (wiring_frozen()) {
      throw_wiring_frozen("connect", from.fqn() + " -> " + to.fqn());
    }
    from.bind_to(&to);
  }

  /// Connects `from` to `to` with a logical delay: a value set at tag g
  /// appears on `to` at g + delay (g with the microstep incremented when
  /// delay == 0). Implemented via a hidden relay reactor owned by this
  /// environment.
  template <typename T>
  void connect_delayed(Port<T>& from, Port<T>& to, Duration delay);

  /// Validates the topology, assigns the graph's levels (or the installed
  /// plan's) to the reactions, binds the port trigger closures, registers
  /// timers and startup/shutdown triggers. Idempotent.
  void assemble();

  /// Installs a precomputed level assignment: the next assemble() applies
  /// it (validated against the live topology) instead of running the
  /// topological sort. Must be called before assemble(); throws
  /// std::logic_error afterwards.
  void set_schedule_plan(SchedulePlan plan);

  /// Blocking threaded execution (assembles if needed). Returns after
  /// shutdown completes.
  void run();

  /// Thread-safe shutdown request; shutdown reactions run at the next
  /// microstep.
  void request_shutdown();

  [[nodiscard]] Tag current_tag() const { return scheduler_.current_tag(); }
  [[nodiscard]] TimePoint physical_time() const { return clock_.now(); }
  [[nodiscard]] TimePoint start_time() const noexcept { return scheduler_.start_tag().time; }

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] PhysicalClock& clock() noexcept { return clock_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] bool assembled() const noexcept { return assembled_; }
  [[nodiscard]] int level_count() const noexcept { return level_count_; }
  [[nodiscard]] Trace& trace() noexcept { return scheduler_.trace(); }

  /// The environment's acyclic precedence graph, built on first use and
  /// the same object for the environment's lifetime. Building it freezes
  /// the wiring (see the file comment). The level/writer/dependency tables
  /// it exposes are the contract consumed by the static verifier, the
  /// level assignment and the scheduler's port closures.
  [[nodiscard]] DependencyGraph& graph();
  /// True once graph() has built the graph: no more wiring is accepted.
  [[nodiscard]] bool wiring_frozen() const noexcept { return graph_ != nullptr; }
  /// Throws the std::logic_error for wiring (`what` on `subject`) that
  /// came after the graph was built.
  [[noreturn]] static void throw_wiring_frozen(std::string_view what, const std::string& subject);

  [[nodiscard]] const std::vector<Reactor*>& top_level() const noexcept { return top_level_; }
  void register_top_level(Reactor* reactor) { top_level_.push_back(reactor); }

 private:
  void register_special_actions(Reactor* reactor);

  PhysicalClock& clock_;
  Config config_;
  Scheduler scheduler_;
  std::unique_ptr<DependencyGraph> graph_;
  std::unique_ptr<SchedulePlan> plan_;
  std::vector<Reactor*> top_level_;
  std::vector<std::unique_ptr<Reactor>> owned_relays_;
  int relay_counter_{0};
  bool assembled_{false};
  int level_count_{0};
};

}  // namespace dear::reactor
