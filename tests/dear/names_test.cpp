// Element-name contract.
//
// Element names and fqns are views into their environment's set-up arena,
// written once when the element is declared. These tests pin what that
// must not change and what it must not break: every fqn is the dotted
// containment path, with the exact text the apps have always produced;
// errors about frozen wiring still name the element; a validation report
// owns its text and outlives the app it came from; and a view read after
// its environment is gone is caught by AddressSanitizer.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "acc/pipeline.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "brake/dear_pipeline.hpp"
#include "common/digest.hpp"
#include "dear/app_builder.hpp"
#include "reactor/runtime.hpp"
#include "scenario/workloads.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define DEAR_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DEAR_TEST_ASAN 1
#endif
#endif

namespace dear {
namespace {

using namespace dear::reactor;

class Inner final : public Reactor {
 public:
  Output<int> out{"out", this};
  explicit Inner(Reactor* parent) : Reactor("inner", parent) {
    add_reaction("emit", [this] { out.set(1); }).writes(out);
  }
};

class Outer final : public Reactor {
 public:
  Input<int> in{"in", this};
  LogicalAction<int> tick{"tick", this};
  Timer timer{"timer", this, 10 * kMillisecond};
  Inner inner{this};
  explicit Outer(Environment& env, const std::string& name = "outer") : Reactor(name, env) {
    add_reaction("react", [] {}).triggered_by(in).triggered_by(tick);
  }
};

class NamesTest : public ::testing::Test {
 protected:
  sim::Kernel kernel;
  SimClock clock{kernel};
};

TEST_F(NamesTest, FqnsAreDottedContainmentPaths) {
  Environment env(clock);
  Outer outer(env);
  EXPECT_EQ(outer.fqn(), "outer");
  EXPECT_EQ(outer.name(), "outer");
  EXPECT_EQ(outer.in.fqn(), "outer.in");
  EXPECT_EQ(outer.in.name(), "in");
  EXPECT_EQ(outer.tick.fqn(), "outer.tick");
  EXPECT_EQ(outer.timer.fqn(), "outer.timer");
  EXPECT_EQ(outer.reactions().front()->fqn(), "outer.react");
  EXPECT_EQ(outer.reactions().front()->name(), "react");
  EXPECT_EQ(outer.inner.fqn(), "outer.inner");
  EXPECT_EQ(outer.inner.name(), "inner");
  EXPECT_EQ(outer.inner.out.fqn(), "outer.inner.out");
  EXPECT_EQ(outer.inner.reactions().front()->fqn(), "outer.inner.emit");
  // A name given as a prefix and a member is joined with '.'.
  Reactor dotted(Name{"node.Interface", "member"}, env);
  EXPECT_EQ(dotted.fqn(), "node.Interface.member");
  EXPECT_EQ(dotted.name(), "node.Interface.member");
}

TEST_F(NamesTest, TransactorNamesAreNodeInterfaceMember) {
  scenario::ScenarioSpec spec;
  spec.frames = 0;
  brake::DearScenarioConfig config = scenario::to_dear_config(spec);
  config.build_only = true;
  std::string video_rx;
  std::string bundle;
  config.preflight = [&](AppBuilder& app) {
    for (const auto& record : app.transactor_records()) {
      if (!record.server && record.node->name() == "preproc") {
        video_rx = std::string(record.transactor->fqn());
        bundle = std::string(record.transactor->ports().front()->fqn());
      }
    }
  };
  (void)brake::run_dear_pipeline(config);
  EXPECT_EQ(video_rx, "preproc.VideoAdapter.frame");
  EXPECT_EQ(bundle, "preproc.VideoAdapter.frame.out");
}

void mix_text(std::uint64_t& digest, std::string_view text) {
  for (const char c : text) {
    common::mix_digest(digest, static_cast<unsigned char>(c));
  }
  common::mix_digest(digest, text.size());
}

void mix_tree(std::uint64_t& digest, std::size_t& count, const Reactor& reactor) {
  mix_text(digest, reactor.fqn());
  ++count;
  for (const BasePort* port : reactor.ports()) {
    mix_text(digest, port->fqn());
    ++count;
  }
  for (const BaseAction* action : reactor.actions()) {
    mix_text(digest, action->fqn());
    ++count;
  }
  for (const Reaction* reaction : reactor.reactions()) {
    mix_text(digest, reaction->fqn());
    ++count;
  }
  for (const Reactor* child : reactor.children()) {
    mix_tree(digest, count, *child);
  }
}

/// Digest over the fqn of every element of every node, in declaration
/// order, plus the element count.
struct NameDigest {
  std::uint64_t digest{0};
  std::size_t count{0};

  void add(const AppBuilder& app) {
    for (const auto& node : app.nodes()) {
      for (const Reactor* reactor : node->environment().top_level()) {
        mix_tree(digest, count, *reactor);
      }
    }
  }
};

// Element counts and fqn digests of the shipped apps, measured before
// names moved into the environment arenas.
constexpr std::size_t kBrakeFtElements = 70;
constexpr std::uint64_t kBrakeFtNames = 0x6c0f99f26991107eULL;
constexpr std::size_t kAccElements = 107;
constexpr std::uint64_t kAccNames = 0x0b072aa8db9c72b5ULL;

TEST_F(NamesTest, EveryFqnOfTheShippedAppsKeepsItsText) {
  // Pinned from the tree whose elements still kept their names in
  // std::string members: brake with the fault-tolerance layer (health
  // bundle, hold timer) and the ACC chain (events, methods and a field).
  NameDigest brake_names;
  scenario::ScenarioSpec spec;
  spec.frames = 0;
  spec.service_faults.crash_at = 2 * kSecond;
  brake::DearScenarioConfig brake_config = scenario::to_dear_config(spec);
  brake_config.build_only = true;
  brake_config.preflight = [&brake_names](AppBuilder& app) { brake_names.add(app); };
  (void)brake::run_dear_pipeline(brake_config);

  NameDigest acc_names;
  spec.service_faults = {};
  spec.workload = scenario::Workload::kAcc;
  acc::AccScenarioConfig acc_config = scenario::to_acc_config(spec);
  acc_config.build_only = true;
  acc_config.preflight = [&acc_names](AppBuilder& app) { acc_names.add(app); };
  (void)acc::run_acc_pipeline(acc_config);

  EXPECT_EQ(brake_names.count, kBrakeFtElements);
  EXPECT_EQ(brake_names.digest, kBrakeFtNames);
  EXPECT_EQ(acc_names.count, kAccElements);
  EXPECT_EQ(acc_names.digest, kAccNames);
}

TEST_F(NamesTest, FrozenWiringErrorsNameTheElement) {
  Environment env(clock);
  Outer a(env, "a");
  Outer b(env, "b");
  (void)env.graph();
  const auto message = [](auto&& wire) {
    try {
      wire();
    } catch (const std::logic_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { env.connect(a.inner.out, b.in); }),
            "connect after the reactor graph was built: a.inner.out -> b.in");
  EXPECT_EQ(message([&] { a.reactions().front()->writes(b.in); }),
            "writes after the reactor graph was built: a.react");
  EXPECT_EQ(message([&] { a.reactions().front()->reads_state("cell"); }),
            "reads_state after the reactor graph was built: a.react");
  EXPECT_EQ(message([&] { Reactor late("late", env); }),
            "new element after the reactor graph was built: late");
  EXPECT_EQ(message([&] { Input<int> late("late_in", &a); }),
            "new element after the reactor graph was built: a.late_in");
}

TEST_F(NamesTest, ValidationReportOutlivesItsApp) {
  scenario::ScenarioSpec spec;
  spec.frames = 0;
  brake::DearScenarioConfig config = scenario::to_dear_config(spec);
  config.build_only = true;
  analysis::Report report;
  std::string facts_while_alive;
  config.preflight = [&](AppBuilder& app) {
    report = app.validate(analysis::Gate::kStructural);
    facts_while_alive = report.facts.to_json();
  };
  (void)brake::run_dear_pipeline(config);  // the app and its arenas are gone
  ASSERT_FALSE(facts_while_alive.empty());
  EXPECT_EQ(report.facts.to_json(), facts_while_alive);
  for (const analysis::Diagnostic& diagnostic : report.diagnostics) {
    EXPECT_FALSE(std::string(diagnostic.subject).empty());
  }
}

TEST_F(NamesTest, ViewsDieWithTheirEnvironment) {
#ifndef DEAR_TEST_ASAN
  GTEST_SKIP() << "a read of a dead view is only caught under AddressSanitizer";
#else
  std::string_view fqn;
  {
    auto env = std::make_unique<Environment>(clock);
    Outer outer(*env);
    fqn = outer.inner.out.fqn();
  }
  EXPECT_DEATH({ [[maybe_unused]] const std::string copy(fqn); }, "use-after-free");
#endif
}

}  // namespace
}  // namespace dear
