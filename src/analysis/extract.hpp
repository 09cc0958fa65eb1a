// Extraction: reactor topologies → analysis facts.
//
// Works on *constructed* (wired, not necessarily assembled) environments
// and reads each environment's own DependencyGraph — the graph
// assemble() later assigns levels from — without mutating any reaction,
// so extraction is safe to run before AppBuilder::start() and never draws
// from an rng stream: validate() cannot move a determinism digest.
// Reading the graph builds it if needed, which freezes the environment's
// wiring (reactor/environment.hpp): what was extracted is what runs.
#pragma once

#include <string>
#include <vector>

#include "analysis/facts.hpp"

namespace dear::reactor {
class Environment;
}

namespace dear::analysis {

struct NodeContext {
  std::string name;
  reactor::Environment* environment{nullptr};
};

/// Extracts every node in order: reaction and port indices are global
/// across nodes, and the table's pools are sized once up front.
[[nodiscard]] Facts extract(const std::vector<NodeContext>& nodes);

}  // namespace dear::analysis
