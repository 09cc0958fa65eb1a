// End-to-end timing analysis: chain extraction over synthetic fact
// tables (each DEAR-LAT rule firing and staying quiet), plus the real
// workloads, whose chain numbers are exact by construction — the DEAR
// timing model makes logical latency a plain sum of per-hop D + L + E.
#include "analysis/timing.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analyzer.hpp"
#include "scenario/spec.hpp"

namespace dear::analysis {
namespace {

using namespace dear::literals;
using scenario::ScenarioSpec;
using scenario::Workload;

std::size_t count_rule(const std::vector<Diagnostic>& diagnostics, Rule rule) {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [rule](const Diagnostic& d) { return d.rule == rule; }));
}

ReactionFact reaction(Facts& facts, std::string_view node, std::string_view fqn, int level,
                      bool entry, Duration deadline = 0, Duration wcet = 0) {
  ReactionFact fact;
  fact.node = facts.add_text(node);
  fact.fqn = facts.add_text(fqn);
  fact.level = level;
  fact.entry = entry;
  fact.deadline = deadline;
  fact.wcet = wcet;
  return fact;
}

ChannelFact channel(std::string member, std::string server, std::string client,
                    Duration deadline, Duration latency_bound, Duration clock_error = 0) {
  ChannelFact fact;
  fact.member = std::move(member);
  fact.server_node = std::move(server);
  fact.client_node = std::move(client);
  fact.deadline = deadline;
  fact.latency_bound = latency_bound;
  fact.clock_error = clock_error;
  return fact;
}

/// source --x--> mid --y--> sink, budget declared on mid's member y.
Facts two_hop_facts(Duration budget) {
  Facts facts;
  facts.workload = "synthetic";
  facts.level_count = 1;
  facts.reactions.push_back(reaction(facts, "source", "source/emit", 0, true, 5_ms, 1_ms));
  facts.reactions.push_back(reaction(facts, "mid", "mid/process", 0, false, 10_ms, 4_ms));
  facts.reactions.push_back(reaction(facts, "sink", "sink/consume", 0, false, 5_ms, 1_ms));
  facts.channels.push_back(channel("Iface.x", "source", "mid", 5_ms, 3_ms, 1_ms));
  facts.channels.push_back(channel("Iface.y", "mid", "sink", 10_ms, 3_ms, 2_ms));
  facts.budgets.push_back(BudgetFact{"Iface.y", "mid", budget});
  return facts;
}

TEST(Timing, ChainLatencyIsTheSumOfHops) {
  const Facts facts = two_hop_facts(/*budget=*/30_ms);
  const TimingAnalysis timing = analyze_timing(facts);
  ASSERT_EQ(timing.chains.size(), 1U);
  const ChainBound& chain = timing.chains.front();
  EXPECT_EQ(chain.source, "source");
  EXPECT_EQ(chain.sink, "sink");
  ASSERT_EQ(chain.path.size(), 3U);
  EXPECT_EQ(chain.path[0], "source");
  EXPECT_EQ(chain.path[1], "mid");
  EXPECT_EQ(chain.path[2], "sink");
  // (5 + 3 + 1) + (10 + 3 + 2) ms — each hop is D + L + E.
  EXPECT_EQ(chain.logical_latency, 24_ms);
  EXPECT_EQ(chain.critical_path_wcet, 6_ms);
  EXPECT_EQ(chain.budget, 30_ms);
}

TEST(Timing, BudgetExceededFiresLat001) {
  const Facts facts = two_hop_facts(/*budget=*/20_ms);  // chain needs 24 ms
  const TimingAnalysis timing = analyze_timing(facts);
  std::vector<Diagnostic> diagnostics;
  check_timing(facts, timing, diagnostics);
  ASSERT_EQ(count_rule(diagnostics, Rule::kChainBudgetExceeded), 1U);
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == Rule::kChainBudgetExceeded) {
      EXPECT_EQ(d.subject, "Iface.y");
      EXPECT_NE(d.message.find("source->mid->sink"), std::string::npos) << d.message;
      EXPECT_EQ(d.severity, Severity::kWarning);
    }
  }
}

TEST(Timing, BudgetWithHeadroomIsClean) {
  const Facts facts = two_hop_facts(/*budget=*/24_ms);  // exactly met: <= passes
  const TimingAnalysis timing = analyze_timing(facts);
  std::vector<Diagnostic> diagnostics;
  check_timing(facts, timing, diagnostics);
  EXPECT_EQ(count_rule(diagnostics, Rule::kChainBudgetExceeded), 0U);
  EXPECT_EQ(count_rule(diagnostics, Rule::kUnreachableBudgetSink), 0U);
}

TEST(Timing, UnreachableBudgetFiresLat004) {
  Facts facts = two_hop_facts(/*budget=*/30_ms);
  // A budget on a node no tagged chain reaches (nothing connects to it).
  facts.reactions.push_back(reaction(facts, "island", "island/idle", 0, false));
  facts.budgets.push_back(BudgetFact{"Island.out", "island", 10_ms});
  const TimingAnalysis timing = analyze_timing(facts);
  std::vector<Diagnostic> diagnostics;
  check_timing(facts, timing, diagnostics);
  ASSERT_EQ(count_rule(diagnostics, Rule::kUnreachableBudgetSink), 1U);
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == Rule::kUnreachableBudgetSink) {
      EXPECT_EQ(d.subject, "Island.out");
      EXPECT_NE(d.message.find("island"), std::string::npos);
    }
  }
}

TEST(Timing, CriticalPathOverDeadlineFiresLat002) {
  Facts facts = two_hop_facts(/*budget=*/30_ms);
  // Chain two costed reactions on "mid": 4 + 7 = 11 ms critical path
  // against mid's tightest 10 ms deadline.
  ReactionFact second = reaction(facts, "mid", "mid/postprocess", 1, false, 10_ms, 7_ms);
  second.depends_on = facts.add_list({1});  // mid/process
  facts.reactions.push_back(std::move(second));
  const TimingAnalysis timing = analyze_timing(facts);
  const NodeTiming* mid = timing.find_node("mid");
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->critical_path_wcet, 11_ms);
  EXPECT_EQ(mid->tightest_deadline, 10_ms);
  std::vector<Diagnostic> diagnostics;
  check_timing(facts, timing, diagnostics);
  ASSERT_EQ(count_rule(diagnostics, Rule::kChainWcetExceedsDeadline), 1U);
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == Rule::kChainWcetExceedsDeadline) {
      EXPECT_EQ(d.subject, "mid");
      EXPECT_EQ(d.severity, Severity::kError);
    }
  }
}

TEST(Timing, CrossNodeDependenciesStayOffTheCriticalPath) {
  Facts facts = two_hop_facts(/*budget=*/30_ms);
  // sink/consume depending on source/emit (cross-node) must not fold the
  // source's WCET into the sink's intra-node critical path.
  facts.reactions[2].depends_on = facts.add_list({0});
  const TimingAnalysis timing = analyze_timing(facts);
  const NodeTiming* sink = timing.find_node("sink");
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->critical_path_wcet, 1_ms);
}

TEST(Timing, UntaggedChannelsFormNoChain) {
  Facts facts = two_hop_facts(/*budget=*/30_ms);
  for (ChannelFact& fact : facts.channels) {
    fact.tagged = false;
  }
  const TimingAnalysis timing = analyze_timing(facts);
  EXPECT_TRUE(timing.chains.empty());
  std::vector<Diagnostic> diagnostics;
  check_timing(facts, timing, diagnostics);
  EXPECT_EQ(count_rule(diagnostics, Rule::kUnreachableBudgetSink), 1U);
}

// --- the real workloads ------------------------------------------------------
// The numbers below are *exact*: per-hop latency is the configured
// D + L + E, so the brake chain is 5+5 + 25+5 + 25+5 = 70 ms against the
// EBA descriptor's 80 ms budget (paper §IV.B deadlines).

ScenarioSpec spec_for(Workload workload) {
  ScenarioSpec spec;
  spec.workload = workload;
  return spec;
}

Report timed_report(Workload workload) {
  AnalyzeOptions options;
  options.timing = true;
  return analyze_spec(spec_for(workload), options);
}

TEST(Timing, BrakeChainMatchesThePaperLatency) {
  const Report report = timed_report(Workload::kBrakeDear);
  ASSERT_TRUE(report.timing_evaluated);
  ASSERT_EQ(report.timing.chains.size(), 1U);
  const ChainBound& chain = report.timing.chains.front();
  ASSERT_EQ(chain.path.size(), 4U);
  EXPECT_EQ(chain.path.front(), "adapter");
  EXPECT_EQ(chain.path.back(), "eba");
  EXPECT_EQ(chain.logical_latency, 70_ms);
  EXPECT_EQ(chain.budget, 80_ms);
  EXPECT_EQ(report.error_count(), 0U) << "default knobs keep every LAT rule quiet";
}

TEST(Timing, AccChainsFanOutToBothSubscribers) {
  const Report report = timed_report(Workload::kAcc);
  ASSERT_TRUE(report.timing_evaluated);
  // One budget on AccController.command, two subscribers (actuator and
  // console): two chains, same latency, same budget.
  ASSERT_EQ(report.timing.chains.size(), 2U);
  for (const ChainBound& chain : report.timing.chains) {
    EXPECT_EQ(chain.source, "radar");
    EXPECT_EQ(chain.logical_latency, 50_ms);
    EXPECT_EQ(chain.budget, 60_ms);
  }
}

TEST(Timing, TimedReportCarriesTimingAndPlanJson) {
  const Report report = timed_report(Workload::kBrakeDear);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"timing\""), std::string::npos);
  EXPECT_NE(json.find("\"plan_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"chains\""), std::string::npos);
  EXPECT_NE(json.find("\"logical_latency_ns\": 70000000"), std::string::npos);
  // Without --timing the report is byte-identical to the PR 6 schema.
  const std::string plain = analyze_spec(spec_for(Workload::kBrakeDear)).to_json();
  EXPECT_EQ(plain.find("\"timing\""), std::string::npos);
  EXPECT_EQ(plain.find("\"plan_digest\""), std::string::npos);
}

TEST(Timing, TightenedDeadlinesFireTheChainRuleButNotTheStructuralGate) {
  ScenarioSpec spec = spec_for(Workload::kBrakeDear);
  spec.deadline_scale = 0.1;
  AnalyzeOptions options;
  options.timing = true;
  const Report report = analyze_spec(spec, options);
  std::size_t lat002 = 0;
  for (const Diagnostic& d : report.diagnostics) {
    lat002 += d.rule == Rule::kChainWcetExceedsDeadline ? 1 : 0;
  }
  EXPECT_GT(lat002, 0U);
  EXPECT_FALSE(report.deterministic());
  EXPECT_TRUE(report.verdict_matches());
}

}  // namespace
}  // namespace dear::analysis
