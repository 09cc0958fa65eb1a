// Acyclic precedence graph (APG).
//
// "The communication topology of a reactor program translates into an
// acyclic precedence graph that drives the execution" (paper §III.A).
// Edges:
//   * a reaction that may write a port precedes every reaction that is
//     triggered by or reads that port (following connections transitively),
//   * within one reactor, reactions are ordered by declaration priority.
// A topological sort assigns each reaction a level; reactions on the same
// level are independent and may execute in parallel. Cycles are reported
// with the full path.
//
// The graph is one set of flat tables, derived from the topology and the
// environment's wiring record (one Wiring entry per declaration, in
// declaration order): the reactions, ports and actions in collection
// order, each reaction's declarations, each port's writers and trigger
// closure (the reactions its source stages when set), each action's
// triggered reactions, and the deduplicated edges in CSR form (compressed
// sparse row: all rows in one array, row i spanning
// offsets[i]..offsets[i+1]) in both directions. The tables share one
// buffer, sized once from the counts: building a graph allocates once
// (its working storage is per thread and reused). Each reaction, port and
// action records its row, so lookups are O(1). Every reactor::Environment
// owns exactly one graph, shared by the static verifier (src/analysis/),
// the level assignment and the closures the scheduler stages from. The
// levels the scheduler runs by come from this graph's topological sort
// and from nowhere else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "reactor/fwd.hpp"

namespace dear::reactor {

/// One wiring declaration. The environment records them in declaration
/// order; the graph derives every per-element wiring table from that
/// record, so ports, actions and reactions keep no wiring lists of their
/// own.
struct Wiring {
  enum class Kind : std::uint8_t {
    kTrigger,        // reaction triggered_by(port)
    kRead,           // reaction reads(port)
    kWrite,          // reaction writes(port)
    kActionTrigger,  // reaction triggered_by(action)
    kStateRead,      // reaction reads_state(state)
    kStateWrite,     // reaction writes_state(state)
    kConnect,        // port bound to sink
  };

  Kind kind{Kind::kTrigger};
  /// The declaring reaction; null for kConnect.
  Reaction* reaction{nullptr};
  /// The port declared on; for kConnect the upstream port.
  BasePort* port{nullptr};
  /// kConnect: the downstream port.
  BasePort* sink{nullptr};
  /// kActionTrigger: the triggering action.
  BaseAction* action{nullptr};
  /// kStateRead, kStateWrite: the state cell's name.
  std::string_view state{};
  /// The next declaration of the same environment.
  Wiring* next{nullptr};
};

/// Rows of values in one flat array: row i is values[offsets[i], offsets[i+1]).
template <typename T>
struct CsrTable {
  std::span<std::uint32_t> offsets;
  std::span<T> values;

  /// Number of rows.
  [[nodiscard]] std::size_t size() const noexcept {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const T> operator[](std::size_t row) const noexcept {
    return {values.data() + offsets[row], values.data() + offsets[row + 1]};
  }
};

class DependencyGraph {
 public:
  /// Outcome of the non-throwing level analysis. When the graph is cyclic,
  /// `cyclic` lists the indices (into reactions()) of every reaction stuck
  /// on an instantaneous cycle; levels of acyclic reactions stay valid.
  struct LevelAnalysis {
    bool acyclic{true};
    int level_count{0};
    std::vector<std::size_t> cyclic;
  };

  /// Collects all reactions, ports and actions reachable from the
  /// environment's top-level reactors and derives the tables from its
  /// wiring record.
  explicit DependencyGraph(const Environment& environment);

  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;

  /// Computes levels without mutating the reactions and without throwing;
  /// idempotent (cached). The entry point for static analysis, which wants
  /// cycles as diagnostics rather than exceptions.
  const LevelAnalysis& analyze();

  /// Assigns levels onto the reactions; throws std::logic_error naming the
  /// cycle if the graph is cyclic. Returns the number of levels.
  int assign_levels();

  /// Points every port's triggered_closure() and every action's
  /// triggered_reactions() at this graph's tables. The owning Environment
  /// calls it at assembly; the graph must outlive every execution of the
  /// ports and actions.
  void bind_closures() const;

  /// Every reaction of the collected reactors, in collection order.
  [[nodiscard]] std::span<Reaction* const> reactions() const noexcept { return reactions_; }
  /// Every port of the collected reactors, in collection order.
  [[nodiscard]] std::span<BasePort* const> ports() const noexcept { return ports_; }
  /// Every action of the collected reactors, in collection order.
  [[nodiscard]] std::span<BaseAction* const> actions() const noexcept { return actions_; }
  [[nodiscard]] int level_count() const noexcept { return level_count_; }

  // --- const introspection -----------------------------------------------------

  /// The wiring declared by reactions()[index] (triggers, reads, writes,
  /// action triggers, state annotations), in declaration order.
  [[nodiscard]] std::span<const Wiring* const> wiring(std::size_t index) const noexcept {
    return wiring_[index];
  }

  /// Reactions that must run after reactions()[index], as sorted,
  /// deduplicated indices into reactions().
  [[nodiscard]] std::span<const std::uint32_t> successors(std::size_t index) const noexcept {
    return successors_[index];
  }
  /// Reactions that must run before reactions()[index] (direct APG
  /// predecessors), sorted and deduplicated.
  [[nodiscard]] std::span<const std::uint32_t> predecessors(std::size_t index) const noexcept {
    return predecessors_[index];
  }
  /// Number of distinct edges.
  [[nodiscard]] std::size_t edge_count() const noexcept { return successors_.values.size(); }

  /// Level computed for reactions()[index] (0-based; -1 for reactions
  /// listed in LevelAnalysis::cyclic). Valid after analyze().
  [[nodiscard]] int level_of(std::size_t index) const { return level_[index]; }

  /// Reactions grouped by level: levels()[l] spans every reaction at level
  /// l, in graph order. Empty for a cyclic graph. Valid after analyze().
  [[nodiscard]] const CsrTable<Reaction*>& levels() const noexcept { return by_level_; }

  /// Reactions that may write `port`, resolved through the binding chain
  /// to the source port (writers always register on the source), in
  /// declaration order. Empty for a port outside this graph.
  [[nodiscard]] std::span<Reaction* const> writers_of(const BasePort& port) const noexcept;

  /// Index of `reaction` in reactions(), or reactions().size() when the
  /// reaction is not part of this graph.
  [[nodiscard]] std::size_t index_of(const Reaction& reaction) const noexcept;
  /// Index of `port` in ports(), or ports().size() when the port is not
  /// part of this graph.
  [[nodiscard]] std::size_t index_of(const BasePort& port) const noexcept;

 private:
  void group_by_level();

  /// The one buffer every table below is a view of.
  std::unique_ptr<std::byte[]> storage_;
  std::span<Reaction*> reactions_;
  std::span<BasePort*> ports_;
  std::span<BaseAction*> actions_;
  CsrTable<const Wiring*> wiring_;       // one row per reaction
  CsrTable<Reaction*> writers_;          // one row per port: its declared writers
  // One row per port: the reactions staged when the port (or, for a
  // sink, its source) becomes present — its own triggers plus those of
  // every transitively bound sink.
  CsrTable<Reaction*> closures_;
  CsrTable<Reaction*> action_triggers_;  // one row per action
  CsrTable<std::uint32_t> successors_;   // one row per reaction
  CsrTable<std::uint32_t> predecessors_; // one row per reaction
  std::span<int> level_;
  std::span<std::uint32_t> level_offsets_;  // room for one level per reaction
  CsrTable<Reaction*> by_level_;            // one row per level
  LevelAnalysis analysis_;
  bool analyzed_{false};
  int level_count_{0};
};

}  // namespace dear::reactor
