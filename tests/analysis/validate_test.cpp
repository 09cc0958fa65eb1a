// AppBuilder::validate() — the pre-flight entry point of the static
// verifier: a clean application yields a report, a defective one throws
// AnalysisError carrying the diagnostics (and the rule IDs in what()).
#include "dear/app_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "acc/pipeline.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "brake/dear_pipeline.hpp"
#include "net/sim_network.hpp"
#include "reactor/graph.hpp"
#include "reactor/runtime.hpp"
#include "scenario/workloads.hpp"
#include "sim/sim_executor.hpp"

namespace dear {
namespace {

using namespace dear::literals;

class Target final : public reactor::Reactor {
 public:
  reactor::Input<int> in{"in", this};

  explicit Target(reactor::Environment& env) : Reactor("target", env) {
    add_reaction("consume", [] {}).triggered_by(in);
  }
};

class Writer final : public reactor::Reactor {
 public:
  Writer(reactor::Environment& env, std::string name, Target& target)
      : Reactor(std::move(name), env), timer_("timer", this, 10_ms) {
    add_reaction("write", [] {}).triggered_by(timer_).writes(target.in);
  }

 private:
  reactor::Timer timer_;
};

struct ValidateTest : ::testing::Test {
  sim::Kernel kernel;
  common::Rng rng{1};
  net::SimNetwork network{kernel, rng.stream("net")};
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor{kernel, rng.stream("dispatch")};
};

TEST_F(ValidateTest, CleanAppReturnsAReport) {
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& node = app.node("solo", net::Endpoint{1, 100}, 0x10);
  auto& target = node.logic<Target>();
  node.logic<Writer>("writer", target);
  const analysis::Report report = app.validate();
  EXPECT_EQ(report.error_count(), 0U);
  EXPECT_EQ(report.workload, "app");
  EXPECT_EQ(report.facts.reactions.size(), 2U);
  EXPECT_EQ(report.facts.text(report.facts.reactions[0].node), "solo");
}

TEST_F(ValidateTest, ConflictingWritersThrowAnalysisError) {
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& node = app.node("solo", net::Endpoint{1, 100}, 0x10);
  auto& target = node.logic<Target>();
  node.logic<Writer>("first", target);
  node.logic<Writer>("second", target);
  try {
    (void)app.validate();
    FAIL() << "expected AnalysisError";
  } catch (const analysis::AnalysisError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DEAR-GRAPH-002"), std::string::npos) << what;
    EXPECT_NE(what.find("target.in"), std::string::npos) << what;
    const auto& diagnostics = error.diagnostics();
    EXPECT_TRUE(std::any_of(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
      return d.rule == analysis::Rule::kMultiWriterPort;
    }));
  }
}

TEST_F(ValidateTest, DiagnosticsSpanNodes) {
  // Two nodes: facts from both environments land in one table with the
  // correct node attribution.
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& left = app.node("left", net::Endpoint{1, 100}, 0x10);
  auto& right = app.node("right", net::Endpoint{1, 101}, 0x11);
  auto& left_target = left.logic<Target>();
  left.logic<Writer>("writer", left_target);
  auto& right_target = right.logic<Target>();
  right.logic<Writer>("writer", right_target);
  const analysis::Report report = app.validate();
  EXPECT_EQ(report.facts.reactions.size(), 4U);
  EXPECT_EQ(report.facts.text(report.facts.reactions[0].node), "left");
  EXPECT_EQ(report.facts.text(report.facts.reactions[2].node), "right");
}

// --- one graph per environment, shared by validate() and start() ------------

TEST_F(ValidateTest, ValidateAndStartShareTheEnvironmentGraph) {
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& node = app.node("solo", net::Endpoint{1, 100}, 0x10);
  auto& target = node.logic<Target>();
  node.logic<Writer>("writer", target);
  reactor::DependencyGraph& graph = node.environment().graph();
  (void)app.validate();
  EXPECT_EQ(&node.environment().graph(), &graph);
  app.start();
  EXPECT_EQ(&node.environment().graph(), &graph);
  EXPECT_TRUE(node.environment().assembled());
  EXPECT_EQ(target.reactions().front()->level(), 1);
}

TEST_F(ValidateTest, WiringAfterValidateThrows) {
  // validate() judged a topology; wiring added afterwards would run
  // unvalidated, so it is rejected.
  class Relay final : public reactor::Reactor {
   public:
    reactor::Input<int> in{"in", this};
    reactor::Output<int> out{"out", this};
    explicit Relay(reactor::Environment& env) : Reactor("relay", env) {
      add_reaction("forward", [] {}).triggered_by(in).writes(out);
    }
  };
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& node = app.node("solo", net::Endpoint{1, 100}, 0x10);
  auto& first = node.logic<Relay>();
  auto& second = node.logic<Relay>();
  (void)app.validate();
  EXPECT_THROW(node.connect(first.out, second.in), std::logic_error);
  EXPECT_THROW(node.environment().connect_delayed(first.out, second.in, 1_ms), std::logic_error);
  EXPECT_EQ(second.in.inward_binding(), nullptr);
}

TEST_F(ValidateTest, CyclicAppFailsValidateAndStart) {
  class Loop final : public reactor::Reactor {
   public:
    reactor::Input<int> in{"in", this};
    reactor::Output<int> out{"out", this};
    Loop(reactor::Environment& env, std::string name) : Reactor(std::move(name), env) {
      add_reaction("loop", [] {}).triggered_by(in).writes(out);
    }
  };
  AppBuilder app(kernel, network, discovery, executor, rng);
  auto& node = app.node("solo", net::Endpoint{1, 100}, 0x10);
  auto& a = node.logic<Loop>("loop_a");
  auto& b = node.logic<Loop>("loop_b");
  node.connect(a.out, b.in);
  node.connect(b.out, a.in);
  try {
    (void)app.validate(analysis::Gate::kStructural);
    FAIL() << "expected AnalysisError";
  } catch (const analysis::AnalysisError& error) {
    const auto& diagnostics = error.diagnostics();
    EXPECT_TRUE(std::any_of(diagnostics.begin(), diagnostics.end(), [](const auto& d) {
      return d.rule == analysis::Rule::kInstantaneousCycle;
    }));
    EXPECT_NE(std::string(error.what()).find("DEAR-GRAPH-001"), std::string::npos);
  }
  try {
    app.start();
    FAIL() << "expected the cycle to stop assembly";
  } catch (const std::logic_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("loop_a"), std::string::npos) << what;
    EXPECT_NE(what.find("loop_b"), std::string::npos) << what;
  }
}

/// (fqn, level) per reaction of one node, level by level.
using LevelTable = std::vector<std::pair<std::string, int>>;

/// Every node's level table for one built (not started) app, read from
/// graph().levels(), optionally after a validate() pass over the same
/// graphs.
template <typename Config, typename Run>
std::vector<LevelTable> level_tables(Config config, Run run, bool validate_first) {
  std::vector<LevelTable> tables;
  config.build_only = true;
  config.preflight = [&tables, validate_first](AppBuilder& app) {
    if (validate_first) {
      (void)app.validate(analysis::Gate::kStructural);
    }
    for (const auto& node : app.nodes()) {
      reactor::DependencyGraph& graph = node->environment().graph();
      (void)graph.analyze();  // cached: a no-op after validate()
      LevelTable& table = tables.emplace_back();
      for (std::size_t level = 0; level < graph.levels().size(); ++level) {
        for (const reactor::Reaction* reaction : graph.levels()[level]) {
          table.emplace_back(reaction->fqn(), static_cast<int>(level));
        }
      }
    }
  };
  (void)run(config);
  return tables;
}

TEST(ValidatePlans, ExportedPlanIsTheSameWithOrWithoutValidate) {
  scenario::ScenarioSpec brake_spec;
  brake_spec.workload = scenario::Workload::kBrakeDear;
  scenario::ScenarioSpec ft_spec = brake_spec;
  ft_spec.service_faults.crash_at = 2 * kSecond;
  scenario::ScenarioSpec acc_spec;
  acc_spec.workload = scenario::Workload::kAcc;

  const auto brake = [](const brake::DearScenarioConfig& c) { return brake::run_dear_pipeline(c); };
  const auto acc = [](const acc::AccScenarioConfig& c) { return acc::run_acc_pipeline(c); };
  for (const auto& [spec, name] : {std::pair{brake_spec, "brake"}, std::pair{ft_spec, "brake+ft"}}) {
    const auto config = scenario::to_dear_config(spec);
    const auto with = level_tables(config, brake, true);
    EXPECT_GE(with.size(), 5U) << name;
    EXPECT_EQ(with, level_tables(config, brake, false)) << name;
  }
  const auto config = scenario::to_acc_config(acc_spec);
  EXPECT_EQ(level_tables(config, acc, true), level_tables(config, acc, false)) << "acc";
}

}  // namespace
}  // namespace dear
