// Compiled schedule plans: the static analyzer's level tables, packaged
// for the runtime.
//
// assemble() assigns the acyclic-precedence-graph levels that the
// environment's graph derives by a topological sort. A StaticPlan
// snapshots the analyzer's level assignment per node so a deployment can
// hand it back to the runtime (AppBuilder::apply_schedule_plans →
// Environment::set_schedule_plan → DependencyGraph::apply_plan) and skip
// the sort — after the graph validates the plan against the live
// topology, so a stale plan fails loudly instead of silently reordering
// reactions. Consuming a plan is observably identical to
// deriving it: traces and digests stay bit-identical at any worker count.
//
// The plan also carries the shape data the timing rules and reports want:
// per-level widths and a canonical digest that names "the schedule" in
// analysis-report-v1 JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/facts.hpp"

namespace dear::reactor {
struct SchedulePlan;
}

namespace dear::analysis {

struct StaticPlan {
  /// One node's compiled level table: levels[l] lists the reaction fqns
  /// at level l, in extraction (= graph) order.
  struct NodePlan {
    std::string node;
    int level_count{0};
    std::vector<std::vector<std::string>> levels;
  };
  std::vector<NodePlan> nodes;  // node first-appearance order

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }
  [[nodiscard]] const NodePlan* find(const std::string& node) const noexcept;

  /// Widest level across all nodes (0 for an empty plan).
  [[nodiscard]] int max_width() const;
  /// histogram[w] = number of (node, level) groups holding exactly w
  /// reactions; index 0 is always 0.
  [[nodiscard]] std::vector<int> width_histogram() const;

  /// Flattens one node's table into the runtime's SchedulePlan form;
  /// throws std::logic_error when the plan has no entry for `node`.
  [[nodiscard]] reactor::SchedulePlan node_plan(const std::string& node) const;

  /// Canonical JSON (same conventions as Facts::to_json).
  [[nodiscard]] std::string to_json(int indent = 0) const;
  /// FNV-1a over to_json(): the stable name of this schedule.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Compiles the per-node level tables out of a fact table. Returns an
/// empty plan when any reaction has no valid level (cyclic graph, or a
/// workload model without a precedence graph).
[[nodiscard]] StaticPlan build_plan(const Facts& facts);

}  // namespace dear::analysis
