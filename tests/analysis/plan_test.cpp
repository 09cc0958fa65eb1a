// Compiled schedule plans: level-table compilation out of fact tables,
// the canonical digest, and the headline contract: the analyzer's plan
// lists, node by node and level by level, exactly the reactions the
// runtime's own graph places there.
#include "analysis/plan.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "acc/pipeline.hpp"
#include "analysis/analyzer.hpp"
#include "brake/dear_pipeline.hpp"
#include "runtime_levels.hpp"
#include "scenario/spec.hpp"

namespace dear::analysis {
namespace {

using scenario::ScenarioSpec;
using scenario::Workload;

ReactionFact reaction(Facts& facts, std::string_view node, std::string_view fqn, int level) {
  ReactionFact fact;
  fact.node = facts.add_text(node);
  fact.fqn = facts.add_text(fqn);
  fact.level = level;
  return fact;
}

Facts synthetic_facts() {
  Facts facts;
  facts.workload = "synthetic";
  facts.level_count = 2;
  facts.reactions.push_back(reaction(facts, "a", "a/first", 0));
  facts.reactions.push_back(reaction(facts, "a", "a/second", 1));
  facts.reactions.push_back(reaction(facts, "a", "a/third", 0));
  facts.reactions.push_back(reaction(facts, "b", "b/only", 0));
  return facts;
}

Report timed_report(Workload workload) {
  ScenarioSpec spec;
  spec.workload = workload;
  AnalyzeOptions options;
  options.timing = true;
  return analyze_spec(spec, options);
}

TEST(StaticPlan, GroupsReactionsByNodeAndLevel) {
  const StaticPlan plan = build_plan(synthetic_facts());
  ASSERT_EQ(plan.nodes.size(), 2U);
  const NodeLevels& a = plan.nodes[0];
  EXPECT_EQ(a.node, "a");
  ASSERT_EQ(a.levels.size(), 2U);
  // Extraction (= graph) order within a level.
  EXPECT_EQ(a.levels[0], (std::vector<std::string>{"a/first", "a/third"}));
  EXPECT_EQ(a.levels[1], (std::vector<std::string>{"a/second"}));
  EXPECT_EQ(plan.nodes[1].node, "b");
  EXPECT_EQ(plan.nodes[1].levels, (std::vector<std::vector<std::string>>{{"b/only"}}));
}

TEST(StaticPlan, UnleveledFactsCompileToTheEmptyPlan) {
  Facts facts = synthetic_facts();
  facts.reactions[1].level = -1;  // cyclic, or a workload without an APG
  EXPECT_TRUE(build_plan(facts).empty());
  // The nondet baseline has no precedence graph at all.
  EXPECT_TRUE(timed_report(Workload::kBrakeNondet).plan.empty());
}

TEST(StaticPlan, NodePlanFlattensAndRejectsUnknownNodes) {
  // Flattened level by level, node "a" lists its reactions by level, then
  // extraction order; a node without reactions gets no table.
  const StaticPlan plan = build_plan(synthetic_facts());
  std::vector<std::pair<std::string, int>> flat;
  for (const NodeLevels& node : plan.nodes) {
    EXPECT_NE(node.node, "nope");
    if (node.node != "a") {
      continue;
    }
    for (std::size_t level = 0; level < node.levels.size(); ++level) {
      for (const std::string& fqn : node.levels[level]) {
        flat.emplace_back(fqn, static_cast<int>(level));
      }
    }
  }
  EXPECT_EQ(flat, (std::vector<std::pair<std::string, int>>{
                      {"a/first", 0}, {"a/third", 0}, {"a/second", 1}}));
}

TEST(StaticPlan, DigestIsStableAcrossExtractions) {
  const StaticPlan first = timed_report(Workload::kBrakeDear).plan;
  const StaticPlan second = timed_report(Workload::kBrakeDear).plan;
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.digest(), 0U);
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(first.to_json(), second.to_json());
  // Different program, different schedule name.
  EXPECT_NE(first.digest(), timed_report(Workload::kAcc).plan.digest());
}

// --- the plan matches the runtime's levels ------------------------------------

/// The runtime's level tables of every node that has levels: a node
/// without reactions has no table in the plan (Facts::levels_by_node).
template <typename Config, typename Run>
std::vector<NodeLevels> leveled_nodes(const Config& config, Run run) {
  std::vector<NodeLevels> nodes = runtime_levels(config, run);
  std::erase_if(nodes, [](const NodeLevels& node) { return node.levels.empty(); });
  return nodes;
}

const auto kRunBrake = [](const brake::DearScenarioConfig& c) { return brake::run_dear_pipeline(c); };
const auto kRunAcc = [](const acc::AccScenarioConfig& c) { return acc::run_acc_pipeline(c); };

TEST(StaticPlan, BrakePipelineConsumingThePlanIsBitIdentical) {
  const Report report = timed_report(Workload::kBrakeDear);
  ASSERT_FALSE(report.plan.empty());
  const auto runtime = leveled_nodes(brake::DearScenarioConfig{}, kRunBrake);
  EXPECT_GE(runtime.size(), 4U);
  EXPECT_EQ(report.plan.nodes, runtime);
}

TEST(StaticPlan, AccPipelineConsumingThePlanIsBitIdentical) {
  const Report report = timed_report(Workload::kAcc);
  ASSERT_FALSE(report.plan.empty());
  EXPECT_EQ(report.plan.nodes, leveled_nodes(acc::AccScenarioConfig{}, kRunAcc));
}

TEST(StaticPlan, ForeignPlanIsRejectedLoudly) {
  // The ACC plan knows nothing about the brake pipeline's nodes.
  const Report report = timed_report(Workload::kAcc);
  EXPECT_NE(report.plan.nodes, leveled_nodes(brake::DearScenarioConfig{}, kRunBrake));
}

}  // namespace
}  // namespace dear::analysis
