// Compiled schedule plans: the static analyzer's per-node level tables,
// as a report artifact.
//
// assemble() assigns the acyclic-precedence-graph levels that each
// environment's graph derives by a topological sort; nothing feeds levels
// back into the runtime. A StaticPlan records the same grouping, read out
// of the fact table (Facts::levels_by_node), for the analysis report: its
// canonical JSON and a digest that names "the schedule" in
// analysis-report-v1 documents.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/facts.hpp"

namespace dear::analysis {

struct StaticPlan {
  std::vector<NodeLevels> nodes;  // node first-appearance order

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }

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
