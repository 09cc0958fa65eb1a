// Reactions.
//
// "Reactors are composed out of reactions that can be triggered by input
// events and may produce output events ... reactions are logically
// instantaneous" (paper §III.A). A reaction declares its triggers (ports,
// actions), reads (dependencies that do not trigger), and effects (ports it
// may write). Reactions of the same reactor are totally ordered by
// declaration; across reactors the acyclic precedence graph assigns levels.
//
// "A deadline D is considered violated when an event with tag t triggers a
// reaction associated with D after physical time T has exceeded t + D."
// When that happens the deadline handler runs *instead of* the body.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string_view>

#include "common/time.hpp"
#include "reactor/element.hpp"
#include "reactor/graph.hpp"
#include "reactor/tag.hpp"
#include "sim/exec_time_model.hpp"

namespace dear::reactor {

class Reaction final : public Element {
 public:
  using Body = std::function<void()>;

  Reaction(Name name, int priority, Reactor* container, Body body);

  // --- declaration-time API ---------------------------------------------------

  Reaction& triggered_by(BasePort& port);
  Reaction& triggered_by(BaseAction& action);
  /// Declares a read dependency that does not trigger the reaction.
  Reaction& reads(BasePort& port);
  /// Declares that the body may set `port`.
  Reaction& writes(BasePort& port);
  /// Attaches a deadline; `handler` runs instead of the body on violation.
  Reaction& with_deadline(Duration deadline, Body handler);

  /// Declares that the body reads resp. mutates a named state cell. The
  /// name is a global identity: two reactions declaring the same name
  /// share that state, whether or not they live in the same reactor. The
  /// static verifier (src/analysis/) requires an APG ordering edge between
  /// any two reactions where at least one mutates a shared cell.
  ///
  /// Each trigger, read, write and state declaration lands in the
  /// environment's wiring record (DependencyGraph::wiring() lists a
  /// reaction's declarations once the graph is built) and throws
  /// std::logic_error once the wiring is frozen.
  Reaction& reads_state(std::string_view name);
  Reaction& writes_state(std::string_view name);

  // --- introspection -----------------------------------------------------------

  [[nodiscard]] int priority() const noexcept { return priority_; }
  [[nodiscard]] int level() const noexcept { return level_; }
  [[nodiscard]] Duration deadline() const noexcept { return deadline_; }
  [[nodiscard]] bool has_deadline() const noexcept { return deadline_ > 0; }

  [[nodiscard]] std::uint64_t executions() const noexcept { return executions_; }
  [[nodiscard]] std::uint64_t deadline_violations() const noexcept {
    return deadline_violations_;
  }

  /// Modeled execution cost, consumed by the DES driver to advance the
  /// platform's busy time (no effect in threaded execution).
  void set_modeled_cost(sim::ExecTimeModel model) { modeled_cost_ = model; has_cost_ = true; }
  [[nodiscard]] bool has_modeled_cost() const noexcept { return has_cost_; }
  [[nodiscard]] const sim::ExecTimeModel& modeled_cost() const noexcept { return modeled_cost_; }

 private:
  friend class Scheduler;
  friend class DependencyGraph;

  /// Runs the body (or the deadline handler on violation).
  void execute(const Tag& tag, TimePoint physical_now);

  /// Records a declaration of this reaction in the environment's wiring
  /// record; rejects it once the wiring is frozen.
  Reaction& declare(std::string_view what, Wiring wiring);

  void set_level(int level) noexcept { level_ = level; }

  Body body_;
  int priority_;
  int level_{-1};
  Duration deadline_{0};
  Body deadline_handler_;

  // Scheduler staging state: the tag this reaction is already staged for
  // (driving thread only).
  Tag staged_for_{Tag::maximum()};
  /// Row in the environment's DependencyGraph reaction table.
  std::uint32_t graph_row_{UINT32_MAX};

  std::uint64_t executions_{0};
  std::uint64_t deadline_violations_{0};

  sim::ExecTimeModel modeled_cost_{sim::ExecTimeModel::constant(0)};
  bool has_cost_{false};
};

}  // namespace dear::reactor
