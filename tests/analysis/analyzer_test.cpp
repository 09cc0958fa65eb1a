// Workload-level analyzer tests: the three case-study pipelines as the
// verifier's regression oracle. The DEAR pipelines must lint clean, the
// stock-APD baseline must be flagged for exactly the defects the paper
// attributes to it, and the static verdict must agree with the runtime
// oracle (expect_deterministic()) across the campaign grids — plus the
// golden fact digests that pin "the analyzer still sees the same program".
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/extract.hpp"
#include "analysis/rules.hpp"
#include "reactor/runtime.hpp"
#include "scenario/presets.hpp"
#include "scenario/spec.hpp"
#include "sim/kernel.hpp"

namespace dear::analysis {
namespace {

using namespace dear::literals;
using scenario::ScenarioSpec;
using scenario::Workload;

bool has_rule(const Report& report, Rule rule) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [rule](const Diagnostic& d) { return d.rule == rule; });
}

std::string digest_hex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, digest);
  return buffer;
}

std::string digest_hex(const Facts& facts) { return digest_hex(facts.digest()); }

ScenarioSpec spec_for(Workload workload) {
  ScenarioSpec spec;
  spec.workload = workload;
  return spec;
}

TEST(Analyzer, DearBrakeLintsClean) {
  const Report report = analyze_spec(spec_for(Workload::kBrakeDear));
  EXPECT_EQ(report.workload, "dear");
  EXPECT_EQ(report.error_count(), 0U);
  EXPECT_TRUE(report.deterministic());
  EXPECT_TRUE(report.expected_deterministic);
  EXPECT_TRUE(report.verdict_matches());
  // The real pipeline graph was extracted: four SWC nodes, transactor
  // levels, tagged channels.
  EXPECT_GT(report.facts.reactions.size(), 10U);
  EXPECT_GE(report.facts.channels.size(), 4U);
  for (const ChannelFact& channel : report.facts.channels) {
    EXPECT_TRUE(channel.tagged) << channel.member;
    EXPECT_EQ(channel.latency_bound, 5_ms) << channel.member;
  }
}

TEST(Analyzer, AccLintsClean) {
  const Report report = analyze_spec(spec_for(Workload::kAcc));
  EXPECT_EQ(report.workload, "acc");
  EXPECT_EQ(report.error_count(), 0U);
  EXPECT_TRUE(report.verdict_matches());
  // The actuator's unused field-client reactions are known dead weight —
  // flagged as warnings, not errors.
  EXPECT_TRUE(has_rule(report, Rule::kDeadReaction));
}

TEST(Analyzer, NondetBaselineIsFlagged) {
  const Report report = analyze_spec(spec_for(Workload::kBrakeNondet));
  EXPECT_EQ(report.workload, "nondet");
  EXPECT_FALSE(report.deterministic());
  EXPECT_FALSE(report.expected_deterministic);
  EXPECT_TRUE(report.verdict_matches());
  // The paper's three defect classes, all present: racy one-slot buffers
  // (store vs. take), unsynchronized counters, untagged service channels.
  EXPECT_TRUE(has_rule(report, Rule::kMultiWriterPort));
  EXPECT_TRUE(has_rule(report, Rule::kUnorderedSharedState));
  EXPECT_TRUE(has_rule(report, Rule::kUntaggedChannel));
  EXPECT_GE(report.error_count(), 13U);
}

// --- golden digests ----------------------------------------------------------
// Pinned values: a change means the analyzer sees a different program —
// either the workload wiring changed (update the anchors deliberately) or
// the extraction regressed (fix it).

TEST(Analyzer, GoldenFactDigests) {
  EXPECT_EQ(digest_hex(analyze_spec(spec_for(Workload::kBrakeDear)).facts),
            "c2832cdc130179f5");
  EXPECT_EQ(digest_hex(analyze_spec(spec_for(Workload::kBrakeNondet)).facts),
            "b81a7e08ee396175");
  EXPECT_EQ(digest_hex(analyze_spec(spec_for(Workload::kAcc)).facts),
            "171ab1b07ae62d72");
}

TEST(Analyzer, GoldenPlanDigests) {
  AnalyzeOptions timing;
  timing.timing = true;
  ScenarioSpec ft = spec_for(Workload::kBrakeDear);
  ft.service_faults.crash_at = 2_s;
  EXPECT_EQ(digest_hex(analyze_spec(spec_for(Workload::kBrakeDear), timing).plan.digest()),
            "38a4bdb21d3ea39c");
  EXPECT_EQ(digest_hex(analyze_spec(ft, timing).plan.digest()), "582013b875f9fd8b");
  EXPECT_EQ(digest_hex(analyze_spec(spec_for(Workload::kAcc), timing).plan.digest()),
            "9011ba55a777f9da");
}

/// Timer reaction writing `out`.
class Tick final : public reactor::Reactor {
 public:
  reactor::Output<int> out{"out", this};

  Tick(reactor::Environment& env, std::string name)
      : Reactor(std::move(name), env), timer_("timer", this, 10_ms) {
    add_reaction("tick", [] {}).triggered_by(timer_).writes(out);
  }

 private:
  reactor::Timer timer_;
};

/// Reaction forwarding `in` to `out`.
class Pass final : public reactor::Reactor {
 public:
  reactor::Input<int> in{"in", this};
  reactor::Output<int> out{"out", this};

  Pass(reactor::Environment& env, std::string name) : Reactor(std::move(name), env) {
    add_reaction("pass", [] {}).triggered_by(in).writes(out);
  }
};

TEST(Analyzer, GoldenLevelTableOfAPartiallyCyclicApp) {
  // Node "looped": an acyclic chain next to an instantaneous cycle with a
  // reaction downstream of it; node "plain": an acyclic chain only. The
  // cycle and everything it feeds sit at level -1 and stay out of the
  // table; both nodes' acyclic reactions keep their levels.
  sim::Kernel kernel;
  reactor::SimClock clock(kernel);
  reactor::Environment looped(clock);
  Tick head(looped, "head");
  Pass tail(looped, "tail");
  Pass loop_a(looped, "loop_a");
  Pass loop_b(looped, "loop_b");
  Pass after(looped, "after");
  looped.connect(head.out, tail.in);
  looped.connect(loop_a.out, loop_b.in);
  looped.connect(loop_b.out, loop_a.in);
  looped.connect(loop_b.out, after.in);
  reactor::Environment plain(clock);
  Tick source(plain, "source");
  Pass first(plain, "first");
  Pass second(plain, "second");
  plain.connect(source.out, first.in);
  plain.connect(first.out, second.in);

  const Facts facts = extract({NodeContext{"looped", &looped}, NodeContext{"plain", &plain}});
  EXPECT_EQ(facts.level_table(),
            "looped/L0: head.tick\n"
            "looped/L1: tail.pass\n"
            "plain/L0: source.tick\n"
            "plain/L1: first.pass\n"
            "plain/L2: second.pass\n");
}

TEST(Analyzer, ExtractionIsDeterministic) {
  const ScenarioSpec spec = spec_for(Workload::kBrakeDear);
  const Report first = analyze_spec(spec);
  const Report second = analyze_spec(spec);
  EXPECT_EQ(first.facts.digest(), second.facts.digest());
  EXPECT_EQ(first.facts.to_json(), second.facts.to_json());
  EXPECT_EQ(first.facts.level_table(), second.facts.level_table());
  EXPECT_FALSE(first.facts.level_table().empty());
}

// --- envelope rules through the full analyzer --------------------------------

TEST(Analyzer, LateScenarioIsRejectedStatically) {
  ScenarioSpec spec = spec_for(Workload::kBrakeDear);
  spec.svc_latency_max = 8_ms;  // beyond the transactors' L = 5ms
  const Report report = analyze_spec(spec);
  EXPECT_TRUE(has_rule(report, Rule::kEnvelopeLatency));
  EXPECT_FALSE(report.deterministic());
  EXPECT_TRUE(report.verdict_matches());
}

TEST(Analyzer, TightenedDeadlinesAreRejectedStatically) {
  ScenarioSpec spec = spec_for(Workload::kBrakeDear);
  spec.deadline_scale = 0.5;
  const Report report = analyze_spec(spec);
  // Both views of the same violation: the envelope knob and the concrete
  // per-node deadline-vs-WCET budgets of the scaled configuration.
  EXPECT_TRUE(has_rule(report, Rule::kEnvelopeDeadlineScale));
  EXPECT_TRUE(has_rule(report, Rule::kDeadlineBelowWcet));
  EXPECT_FALSE(report.deterministic());
  EXPECT_TRUE(report.verdict_matches());
}

// --- campaign oracle ---------------------------------------------------------

TEST(Analyzer, SmokeGridAgreesWithRuntimeOracle) {
  const auto specs = scenario::presets::smoke(/*frames=*/100, /*campaign_seed=*/1).expand();
  const auto reports = analyze_scenarios(specs);
  ASSERT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_TRUE(reports[i].verdict_matches())
        << specs[i].describe() << ": static deterministic=" << reports[i].deterministic()
        << " oracle=" << specs[i].expect_deterministic();
  }
}

TEST(Analyzer, ReportCollectionCarriesTheSchema) {
  const auto reports = analyze_scenarios({spec_for(Workload::kBrakeDear)});
  const std::string json = report_collection_json(reports);
  EXPECT_NE(json.find("\"schema\": \"analysis-report-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"facts_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"level_table\""), std::string::npos);
}

}  // namespace
}  // namespace dear::analysis
