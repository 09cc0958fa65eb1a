#include "analysis/plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "reactor/graph.hpp"

namespace dear::analysis {

const StaticPlan::NodePlan* StaticPlan::find(const std::string& node) const noexcept {
  for (const NodePlan& plan : nodes) {
    if (plan.node == node) {
      return &plan;
    }
  }
  return nullptr;
}

int StaticPlan::max_width() const {
  int widest = 0;
  for (const NodePlan& plan : nodes) {
    for (const auto& level : plan.levels) {
      widest = std::max(widest, static_cast<int>(level.size()));
    }
  }
  return widest;
}

std::vector<int> StaticPlan::width_histogram() const {
  std::vector<int> histogram(static_cast<std::size_t>(max_width()) + 1, 0);
  for (const NodePlan& plan : nodes) {
    for (const auto& level : plan.levels) {
      ++histogram[level.size()];
    }
  }
  return histogram;
}

reactor::SchedulePlan StaticPlan::node_plan(const std::string& node) const {
  const NodePlan* plan = find(node);
  if (plan == nullptr) {
    throw std::logic_error("static plan has no level table for node '" + node + "'");
  }
  reactor::SchedulePlan out;
  out.level_count = plan->level_count;
  for (std::size_t level = 0; level < plan->levels.size(); ++level) {
    for (const std::string& fqn : plan->levels[level]) {
      out.entries.push_back(reactor::SchedulePlan::Entry{fqn, static_cast<int>(level)});
    }
  }
  return out;
}

std::string StaticPlan::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += pad + "{\n";
  out += pad + "  \"nodes\": [\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodePlan& plan = nodes[i];
    out += pad + "    {\"node\": \"" + plan.node +
           "\", \"level_count\": " + std::to_string(plan.level_count) + ", \"levels\": [";
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
  for (const ReactionFact& reaction : facts.reactions) {
    if (reaction.level < 0) {
      return StaticPlan{};
    }
  }
  StaticPlan plan;
  for (const ReactionFact& reaction : facts.reactions) {
    const std::string_view name = facts.text(reaction.node);
    StaticPlan::NodePlan* node = nullptr;
    for (StaticPlan::NodePlan& candidate : plan.nodes) {
      if (candidate.node == name) {
        node = &candidate;
        break;
      }
    }
    if (node == nullptr) {
      plan.nodes.push_back(StaticPlan::NodePlan{std::string(name), 0, {}});
      node = &plan.nodes.back();
    }
    const auto level = static_cast<std::size_t>(reaction.level);
    if (node->levels.size() <= level) {
      node->levels.resize(level + 1);
    }
    node->levels[level].emplace_back(facts.text(reaction.fqn));
    node->level_count = std::max(node->level_count, reaction.level + 1);
  }
  return plan;
}

}  // namespace dear::analysis
