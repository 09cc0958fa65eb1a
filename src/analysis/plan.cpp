#include "analysis/plan.hpp"

#include <algorithm>

namespace dear::analysis {

std::string StaticPlan::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += pad + "{\n";
  out += pad + "  \"nodes\": [\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeLevels& plan = nodes[i];
    out += pad + "    {\"node\": \"" + plan.node +
           "\", \"level_count\": " + std::to_string(plan.levels.size()) + ", \"levels\": [";
    for (std::size_t level = 0; level < plan.levels.size(); ++level) {
      out += level == 0 ? "[" : ",[";
      for (std::size_t k = 0; k < plan.levels[level].size(); ++k) {
        out += k == 0 ? "\"" : ",\"";
        out += plan.levels[level][k];
        out += '"';
      }
      out += ']';
    }
    out += "]}";
    out += i + 1 < nodes.size() ? ",\n" : "\n";
  }
  out += pad + "  ]\n";
  out += pad + "}";
  return out;
}

std::uint64_t StaticPlan::digest() const { return fnv1a64(to_json()); }

StaticPlan build_plan(const Facts& facts) {
  const bool leveled = std::all_of(facts.reactions.begin(), facts.reactions.end(),
                                   [](const ReactionFact& reaction) { return reaction.level >= 0; });
  return leveled ? StaticPlan{facts.levels_by_node()} : StaticPlan{};
}

}  // namespace dear::analysis
