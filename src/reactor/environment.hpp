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
// reactions or reaction declarations throw std::logic_error from then on,
// so what was validated is what runs.
//
// Set-up storage. The environment's elements keep their fqns, reactions
// and wiring declarations in one arena owned by the environment: a block
// inside the environment, then heap blocks that grow geometrically.
// Nothing in it is freed before the environment is destroyed; element
// names and fqns are views into it.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "reactor/graph.hpp"
#include "reactor/physical_clock.hpp"
#include "reactor/port.hpp"
#include "reactor/scheduler.hpp"
#include "reactor/tag.hpp"

namespace dear::reactor {

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
      throw_wiring_frozen("connect", std::string(from.fqn()).append(" -> ").append(to.fqn()));
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

  /// Current logical tag; read it on the driving thread (see
  /// Scheduler::current_tag).
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
  [[nodiscard]] bool wiring_frozen() const noexcept { return graph_.has_value(); }
  /// Throws the std::logic_error for wiring (`what` on `subject`) that
  /// came after the graph was built.
  [[noreturn]] static void throw_wiring_frozen(std::string_view what, std::string_view subject);

  [[nodiscard]] const ElementList<Reactor>& top_level() const noexcept { return top_level_; }
  void register_top_level(Reactor* reactor) noexcept;

  // --- set-up storage (see the file comment) -------------------------------------

  /// The arena of this environment's set-up objects.
  [[nodiscard]] std::pmr::memory_resource& arena() noexcept { return arena_; }
  /// Copies `name` (its parts joined with '.') into the arena.
  [[nodiscard]] std::string_view store_name(Name name);
  /// Copies "<scope>.<name>" into the arena: the fqn of an element named
  /// `name` inside the element whose fqn is `scope`.
  [[nodiscard]] std::string_view store_name(std::string_view scope, Name name);
  /// Appends a declaration to the wiring record (called by Reaction and
  /// BasePort, which check that the wiring is still open).
  void record_wiring(const Wiring& wiring);
  /// The first wiring declaration; follow Wiring::next for the rest, in
  /// declaration order.
  [[nodiscard]] const Wiring* wiring() const noexcept { return wiring_head_; }

 private:
  /// Bytes of arena held inside the environment. Every node of the brake
  /// app fits (at most about 2.2 KiB); the busiest ACC nodes and the
  /// brake app's fault-tolerant EBA node take one heap block more.
  static constexpr std::size_t kArenaInlineBytes = 4096;

  [[nodiscard]] std::string_view store_joined(std::initializer_list<std::string_view> parts);

  PhysicalClock& clock_;
  Config config_;
  // Declared before everything that lives in it, so it is destroyed last.
  alignas(std::max_align_t) std::array<std::byte, kArenaInlineBytes> arena_block_;
  std::pmr::monotonic_buffer_resource arena_{arena_block_.data(), arena_block_.size()};
  Wiring* wiring_head_{nullptr};
  Wiring* wiring_tail_{nullptr};
  Scheduler scheduler_;
  std::optional<DependencyGraph> graph_;
  std::optional<SchedulePlan> plan_;
  ElementList<Reactor> top_level_;
  std::vector<std::unique_ptr<Reactor>> owned_relays_;
  int relay_counter_{0};
  bool assembled_{false};
  int level_count_{0};
};

}  // namespace dear::reactor
