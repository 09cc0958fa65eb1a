// Every node's level table as the runtime assigns it, read from each
// node's graph of a built (not started) app: shared by the plan tests,
// which compare it with the analyzer's grouping, and the validate tests,
// which compare it with and without a validate() pass.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/facts.hpp"
#include "analysis/rules.hpp"
#include "dear/app_builder.hpp"
#include "reactor/graph.hpp"
#include "reactor/reaction.hpp"

namespace dear::analysis {

/// One NodeLevels per node of the app, in node order; a node without
/// reactions gets an empty table. With `validate_first`, validate() runs
/// over the same graphs before they are read.
template <typename Config, typename Run>
std::vector<NodeLevels> runtime_levels(Config config, Run run, bool validate_first = false) {
  std::vector<NodeLevels> nodes;
  config.build_only = true;
  config.preflight = [&nodes, validate_first](AppBuilder& app) {
    if (validate_first) {
      (void)app.validate(Gate::kStructural);
    }
    for (const auto& node : app.nodes()) {
      reactor::DependencyGraph& graph = node->environment().graph();
      (void)graph.analyze();  // cached: a no-op after validate()
      NodeLevels& levels = nodes.emplace_back(NodeLevels{std::string(node->name()), {}});
      for (std::size_t level = 0; level < graph.levels().size(); ++level) {
        std::vector<std::string>& fqns = levels.levels.emplace_back();
        for (const reactor::Reaction* reaction : graph.levels()[level]) {
          fqns.emplace_back(reaction->fqn());
        }
      }
    }
  };
  (void)run(config);
  return nodes;
}

}  // namespace dear::analysis
