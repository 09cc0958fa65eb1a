// Compiled schedule plans: level-table compilation out of fact tables,
// the canonical digest, and the headline contract — a pipeline run that
// *consumes* the analyzer's plan (skipping the assembly-time topological
// sort) is bit-identical to one that derives its levels itself.
#include "analysis/plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "acc/pipeline.hpp"
#include "analysis/analyzer.hpp"
#include "brake/dear_pipeline.hpp"
#include "reactor/graph.hpp"
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
  const StaticPlan::NodePlan* a = plan.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->level_count, 2);
  ASSERT_EQ(a->levels.size(), 2U);
  // Extraction (= graph) order within a level.
  ASSERT_EQ(a->levels[0].size(), 2U);
  EXPECT_EQ(a->levels[0][0], "a/first");
  EXPECT_EQ(a->levels[0][1], "a/third");
  ASSERT_EQ(a->levels[1].size(), 1U);
  EXPECT_EQ(a->levels[1][0], "a/second");
  EXPECT_EQ(plan.max_width(), 2);
  const auto histogram = plan.width_histogram();
  ASSERT_EQ(histogram.size(), 3U);
  EXPECT_EQ(histogram[0], 0);
  EXPECT_EQ(histogram[1], 2);  // a level 1, b level 0
  EXPECT_EQ(histogram[2], 1);  // a level 0
}

TEST(StaticPlan, UnleveledFactsCompileToTheEmptyPlan) {
  Facts facts = synthetic_facts();
  facts.reactions[1].level = -1;  // cyclic, or a workload without an APG
  EXPECT_TRUE(build_plan(facts).empty());
  // The nondet baseline has no precedence graph at all.
  EXPECT_TRUE(timed_report(Workload::kBrakeNondet).plan.empty());
}

TEST(StaticPlan, NodePlanFlattensAndRejectsUnknownNodes) {
  const StaticPlan plan = build_plan(synthetic_facts());
  const reactor::SchedulePlan flat = plan.node_plan("a");
  EXPECT_EQ(flat.level_count, 2);
  ASSERT_EQ(flat.entries.size(), 3U);
  EXPECT_EQ(flat.entries[0].fqn, "a/first");
  EXPECT_EQ(flat.entries[0].level, 0);
  EXPECT_EQ(flat.entries[1].fqn, "a/third");
  EXPECT_EQ(flat.entries[2].fqn, "a/second");
  EXPECT_EQ(flat.entries[2].level, 1);
  EXPECT_THROW((void)plan.node_plan("nope"), std::logic_error);
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

// --- plan consumption: bit-identical to derivation ---------------------------

TEST(StaticPlan, BrakePipelineConsumingThePlanIsBitIdentical) {
  const Report report = timed_report(Workload::kBrakeDear);
  ASSERT_FALSE(report.plan.empty());

  brake::DearScenarioConfig config;
  config.frames = 1500;
  const auto derived = brake::run_dear_pipeline(config);
  config.schedule_plan = &report.plan;
  const auto consumed = brake::run_dear_pipeline(config);

  EXPECT_EQ(consumed.output_digest, derived.output_digest);
  EXPECT_EQ(consumed.tag_digest, derived.tag_digest);
  EXPECT_EQ(consumed.frames_processed_eba, derived.frames_processed_eba);
  EXPECT_EQ(consumed.errors.total(), 0U);
}

TEST(StaticPlan, AccPipelineConsumingThePlanIsBitIdentical) {
  const Report report = timed_report(Workload::kAcc);
  ASSERT_FALSE(report.plan.empty());

  acc::AccScenarioConfig config;
  config.frames = 500;
  const auto derived = acc::run_acc_pipeline(config);
  config.schedule_plan = &report.plan;
  const auto consumed = acc::run_acc_pipeline(config);

  EXPECT_EQ(consumed.output_digest, derived.output_digest);
  EXPECT_EQ(consumed.tag_digest, derived.tag_digest);
}

TEST(StaticPlan, ForeignPlanIsRejectedLoudly) {
  // The ACC plan knows nothing about the brake pipeline's nodes: applying
  // it must throw instead of silently reordering reactions.
  const Report report = timed_report(Workload::kAcc);
  brake::DearScenarioConfig config;
  config.frames = 10;
  config.schedule_plan = &report.plan;
  EXPECT_THROW((void)brake::run_dear_pipeline(config), std::logic_error);
}

}  // namespace
}  // namespace dear::analysis
