// Static end-to-end timing analysis over the fact table.
//
// PR 6's rules judge every channel and reaction point-wise; this pass
// composes the same facts along source→sink chains. The DEAR timing model
// makes that composition exact: each tagged hop delays the logical tag by
// the sender's deadline D plus the receiver's safe-to-process bound L and
// clock-error bound E (ChannelFact::hop_latency), so the logical latency
// of a chain is a plain sum — no measurement, no simulation. Physical
// feasibility reduces to the per-node critical path: the longest
// WCET-weighted path through a node's precedence graph must fit inside
// the node's tightest sending deadline, or deadline misses are certain.
//
// Outputs feed three consumers: DEAR-LAT-001/002/004 diagnostics
// (check_timing), the per-scenario timing verdicts in campaign reports,
// and the analysis-report-v1 JSON surfaced by `dear_lint --timing`.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/facts.hpp"

namespace dear::analysis {

/// One source→sink path through the tagged service-channel graph, bound
/// to the end-to-end budget it is checked against.
struct ChainBound {
  std::string budget_member;  // "<Interface>.<member>" the budget anchors to
  std::string source;         // sensor-side node (entry reactions, no inbound channel)
  std::string sink;           // final receiving node of the chain
  std::vector<std::string> path;  // node names, source..sink inclusive
  /// Σ hop_latency() along the path: the logical delay between the sensor
  /// tag and the tag at which the sink releases the sample.
  Duration logical_latency{0};
  /// Σ per-node critical-path WCET over the chain's nodes: the physical
  /// execution bound of one sample traversing the chain.
  Duration critical_path_wcet{0};
  Duration budget{0};
};

/// Per-node physical timing summary.
struct NodeTiming {
  std::string node;
  /// Longest WCET-weighted path through the node's intra-node precedence
  /// graph (0 when no reaction carries a cost model).
  Duration critical_path_wcet{0};
  /// Tightest positive sending deadline on the node (0 when none).
  Duration tightest_deadline{0};
};

struct TimingAnalysis {
  std::vector<ChainBound> chains;
  std::vector<NodeTiming> nodes;  // node first-appearance order

  [[nodiscard]] const NodeTiming* find_node(const std::string& node) const noexcept;
  /// Canonical JSON (same conventions as Facts::to_json).
  [[nodiscard]] std::string to_json(int indent = 0) const;
};

/// Extracts every budget-anchored chain and the per-node critical paths.
/// Pure function of the fact table; deterministic enumeration order
/// (budget declaration order, then node first-appearance order).
[[nodiscard]] TimingAnalysis analyze_timing(const Facts& facts);

/// Evaluates DEAR-LAT-001, -002 and -004 against a timing analysis
/// (DEAR-LAT-003 is retired).
void check_timing(const Facts& facts, const TimingAnalysis& timing,
                  std::vector<Diagnostic>& out);

}  // namespace dear::analysis
