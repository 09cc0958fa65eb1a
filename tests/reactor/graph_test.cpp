#include "reactor/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reactor_fixture.hpp"

namespace dear::reactor {
namespace {

using namespace dear::literals;
using testing::Counter;
using testing::Doubler;
using testing::Recorder;

struct GraphTest : ::testing::Test {
  sim::Kernel kernel;
  SimClock clock{kernel};
};

TEST_F(GraphTest, ChainLevelsIncrease) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler d1(env, "d1");
  Doubler d2(env, "d2");
  Recorder<int> recorder(env);
  env.connect(counter.out, d1.in);
  env.connect(d1.out, d2.in);
  env.connect(d2.out, recorder.in);
  env.assemble();
  EXPECT_EQ(env.level_count(), 4);
  EXPECT_EQ(counter.reactions().front()->level(), 0);
  EXPECT_EQ(d1.reactions().front()->level(), 1);
  EXPECT_EQ(d2.reactions().front()->level(), 2);
  EXPECT_EQ(recorder.reactions().front()->level(), 3);
}

TEST_F(GraphTest, IndependentReactorsShareLevelZero) {
  Environment env(clock);
  Counter a(env, 10_ms, 1, "a");
  Counter b(env, 10_ms, 1, "b");
  env.assemble();
  EXPECT_EQ(env.level_count(), 1);
  EXPECT_EQ(a.reactions().front()->level(), 0);
  EXPECT_EQ(b.reactions().front()->level(), 0);
}

TEST_F(GraphTest, DiamondConverges) {
  Environment env(clock);
  Counter source(env, 10_ms, 1, "source");
  Doubler left(env, "left");
  Doubler right(env, "right");
  // Join reactor reading both branches.
  class Join final : public Reactor {
   public:
    Input<int> a{"a", this};
    Input<int> b{"b", this};
    explicit Join(Environment& env) : Reactor("join", env) {
      add_reaction("join", [] {}).triggered_by(a).triggered_by(b);
    }
  };
  Join join(env);
  env.connect(source.out, left.in);
  env.connect(source.out, right.in);
  env.connect(left.out, join.a);
  env.connect(right.out, join.b);
  env.assemble();
  EXPECT_EQ(source.reactions().front()->level(), 0);
  EXPECT_EQ(left.reactions().front()->level(), 1);
  EXPECT_EQ(right.reactions().front()->level(), 1);
  EXPECT_EQ(join.reactions().front()->level(), 2);
}

TEST_F(GraphTest, IntraReactorPriorityOrders) {
  class MultiReaction final : public Reactor {
   public:
    explicit MultiReaction(Environment& env) : Reactor("multi", env) {
      add_reaction("first", [] {});
      add_reaction("second", [] {});
      add_reaction("third", [] {});
    }
  };
  Environment env(clock);
  MultiReaction reactor(env);
  env.assemble();
  const std::vector<Reaction*> reactions(reactor.reactions().begin(), reactor.reactions().end());
  EXPECT_EQ(reactions[0]->level(), 0);
  EXPECT_EQ(reactions[1]->level(), 1);
  EXPECT_EQ(reactions[2]->level(), 2);
  EXPECT_EQ(reactions[0]->priority(), 0);
  EXPECT_EQ(reactions[2]->priority(), 2);
}

TEST_F(GraphTest, CycleDetectedWithNames) {
  class Loop final : public Reactor {
   public:
    Input<int> in{"in", this};
    Output<int> out{"out", this};
    explicit Loop(Environment& env, std::string name) : Reactor(std::move(name), env) {
      add_reaction("loop", [] {}).triggered_by(in).writes(out);
    }
  };
  Environment env(clock);
  Loop a(env, "loop_a");
  Loop b(env, "loop_b");
  env.connect(a.out, b.in);
  env.connect(b.out, a.in);
  try {
    env.assemble();
    FAIL() << "expected cycle detection to throw";
  } catch (const std::logic_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("cycle"), std::string::npos);
    EXPECT_NE(message.find("loop_a"), std::string::npos);
    EXPECT_NE(message.find("loop_b"), std::string::npos);
  }
}

TEST_F(GraphTest, ReadDependencyOrdersWithoutTriggering) {
  // A reaction that only *reads* a port must still run after its writer.
  class Reader final : public Reactor {
   public:
    Input<int> in{"in", this};
    explicit Reader(Environment& env) : Reactor("reader", env), timer_("t", this, 10_ms) {
      add_reaction("read", [] {}).triggered_by(timer_).reads(in);
    }

   private:
    Timer timer_;
  };
  Environment env(clock);
  Counter writer(env, 10_ms, 1, "writer");
  Reader reader(env);
  env.connect(writer.out, reader.in);
  env.assemble();
  EXPECT_GT(reader.reactions().front()->level(), writer.reactions().front()->level());
}

TEST_F(GraphTest, NestedReactorsCollected) {
  class Parent final : public Reactor {
   public:
    explicit Parent(Environment& env) : Reactor("parent", env) {
      child = std::make_unique<Counter>(env, 10_ms, 1);
    }
    std::unique_ptr<Counter> child;
  };
  Environment env(clock);
  class Inner final : public Reactor {
   public:
    Inner(std::string name, Reactor* parent) : Reactor(std::move(name), parent) {
      add_reaction("noop", [] {});
    }
  };
  class Outer final : public Reactor {
   public:
    explicit Outer(Environment& env) : Reactor("outer", env), inner("inner", this) {
      add_reaction("outer_noop", [] {});
    }
    Inner inner;
  };
  Outer outer(env);
  env.assemble();
  // Both the outer and the nested reaction got levels.
  EXPECT_GE(outer.reactions().front()->level(), 0);
  EXPECT_GE(outer.inner.reactions().front()->level(), 0);
  EXPECT_EQ(outer.inner.fqn(), "outer.inner");
}

// --- const introspection (the static verifier's view) ------------------------

TEST_F(GraphTest, AnalyzeReportsCycleWithoutThrowing) {
  class Loop final : public Reactor {
   public:
    Input<int> in{"in", this};
    Output<int> out{"out", this};
    explicit Loop(Environment& env, std::string name) : Reactor(std::move(name), env) {
      add_reaction("loop", [] {}).triggered_by(in).writes(out);
    }
  };
  Environment env(clock);
  Loop a(env, "loop_a");
  Loop b(env, "loop_b");
  Counter independent(env, 10_ms, 1);
  env.connect(a.out, b.in);
  env.connect(b.out, a.in);
  DependencyGraph graph(env);
  const auto& analysis = graph.analyze();
  EXPECT_FALSE(analysis.acyclic);
  EXPECT_EQ(analysis.cyclic.size(), 2U);
  // Levels of reactions off the cycle stay valid.
  EXPECT_EQ(graph.level_of(graph.index_of(*independent.reactions().front())), 0);
  // analyze() is cached and idempotent.
  EXPECT_EQ(&graph.analyze(), &analysis);
}

TEST_F(GraphTest, LevelsGroupReactionsByLevel) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler d1(env, "d1");
  Doubler d2(env, "d2");
  env.connect(counter.out, d1.in);
  env.connect(d1.out, d2.in);
  env.assemble();
  const DependencyGraph& graph = env.graph();
  ASSERT_EQ(graph.levels().size(), 3U);
  ASSERT_EQ(graph.levels()[0].size(), 1U);
  EXPECT_EQ(graph.levels()[0][0], counter.reactions().front());
  EXPECT_EQ(graph.levels()[1][0], d1.reactions().front());
  EXPECT_EQ(graph.levels()[2][0], d2.reactions().front());
}

TEST_F(GraphTest, WritersOfResolvesThroughBindings) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler doubler(env, "d");
  Recorder<int> recorder(env);
  env.connect(counter.out, doubler.in);
  env.connect(doubler.out, recorder.in);
  env.assemble();
  // The writer of a *bound input* is the writer of its source port.
  const auto& writers = env.graph().writers_of(doubler.in);
  ASSERT_EQ(writers.size(), 1U);
  EXPECT_EQ(writers[0], counter.reactions().front());
  const auto& sink_writers = env.graph().writers_of(recorder.in);
  ASSERT_EQ(sink_writers.size(), 1U);
  EXPECT_EQ(sink_writers[0], doubler.reactions().front());
}

TEST_F(GraphTest, DependenciesOfListsDirectPredecessors) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler d1(env, "d1");
  Doubler d2(env, "d2");
  env.connect(counter.out, d1.in);
  env.connect(d1.out, d2.in);
  env.assemble();
  const DependencyGraph& graph = env.graph();
  EXPECT_TRUE(graph.predecessors(graph.index_of(*counter.reactions().front())).empty());
  const auto d2_deps = graph.predecessors(graph.index_of(*d2.reactions().front()));
  ASSERT_EQ(d2_deps.size(), 1U);  // direct only — not the transitive counter
  EXPECT_EQ(graph.reactions()[d2_deps[0]], d1.reactions().front());
}

TEST_F(GraphTest, EmptyGraphAnalyzesAcyclicWithNoLevels) {
  // A reactor without reactions is a legal (if pointless) program.
  class Empty final : public Reactor {
   public:
    explicit Empty(Environment& env) : Reactor("empty", env) {}
  };
  Environment env(clock);
  Empty empty(env);
  DependencyGraph graph(env);
  const auto& analysis = graph.analyze();
  EXPECT_TRUE(analysis.acyclic);
  EXPECT_EQ(analysis.level_count, 0);
  EXPECT_TRUE(analysis.cyclic.empty());
  EXPECT_TRUE(graph.reactions().empty());
  // assign_levels still reports the scheduler's 1-level minimum.
  EXPECT_EQ(graph.assign_levels(), 1);
}

TEST_F(GraphTest, SingleReactionSelfLoopIsItsOwnCycle) {
  class SelfLoop final : public Reactor {
   public:
    Input<int> in{"in", this};
    Output<int> out{"out", this};
    explicit SelfLoop(Environment& env) : Reactor("self", env) {
      add_reaction("echo", [] {}).triggered_by(in).writes(out);
    }
  };
  Environment env(clock);
  SelfLoop self(env);
  env.connect(self.out, self.in);
  DependencyGraph graph(env);
  const auto& analysis = graph.analyze();
  EXPECT_FALSE(analysis.acyclic);
  ASSERT_EQ(analysis.cyclic.size(), 1U);
  EXPECT_EQ(graph.reactions()[analysis.cyclic[0]], self.reactions().front());
  EXPECT_THROW((void)graph.assign_levels(), std::logic_error);
}

TEST_F(GraphTest, RepeatedAnalyzeKeepsLevelsStable) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler d1(env, "d1");
  Doubler d2(env, "d2");
  env.connect(counter.out, d1.in);
  env.connect(d1.out, d2.in);
  DependencyGraph graph(env);
  const auto& first = graph.analyze();
  std::vector<int> levels;
  for (std::size_t i = 0; i < graph.reactions().size(); ++i) {
    levels.push_back(graph.level_of(i));
  }
  for (int round = 0; round < 3; ++round) {
    const auto& again = graph.analyze();
    EXPECT_EQ(&again, &first) << "analyze() must be cached";
    for (std::size_t i = 0; i < graph.reactions().size(); ++i) {
      EXPECT_EQ(graph.level_of(i), levels[i]);
    }
  }
}

// --- level tables ------------------------------------------------------------

/// (fqn, level) per reaction, level by level, as the scheduler runs them.
std::vector<std::pair<std::string, int>> level_table(const DependencyGraph& graph) {
  std::vector<std::pair<std::string, int>> table;
  for (std::size_t level = 0; level < graph.levels().size(); ++level) {
    for (const Reaction* reaction : graph.levels()[level]) {
      table.emplace_back(reaction->fqn(), static_cast<int>(level));
    }
  }
  return table;
}

TEST_F(GraphTest, ExportedPlanAppliesToAnIdenticalTopology) {
  // Two environments wired the same way assign the same levels: the level
  // table is a function of the topology alone.
  const auto build = [this](Environment& env, std::vector<std::unique_ptr<Reactor>>& owned) {
    auto counter = std::make_unique<Counter>(env, 10_ms, 1);
    auto d1 = std::make_unique<Doubler>(env, "d1");
    auto d2 = std::make_unique<Doubler>(env, "d2");
    env.connect(counter->out, d1->in);
    env.connect(d1->out, d2->in);
    owned.push_back(std::move(counter));
    owned.push_back(std::move(d1));
    owned.push_back(std::move(d2));
  };
  Environment reference(clock);
  std::vector<std::unique_ptr<Reactor>> reference_reactors;
  build(reference, reference_reactors);
  reference.assemble();
  Environment other(clock);
  std::vector<std::unique_ptr<Reactor>> other_reactors;
  build(other, other_reactors);
  other.assemble();

  EXPECT_EQ(reference.level_count(), 3);
  EXPECT_EQ(other.level_count(), 3);
  const auto table = level_table(reference.graph());
  ASSERT_EQ(table.size(), 3U);
  EXPECT_EQ(level_table(other.graph()), table);
  for (std::size_t i = 0; i < other_reactors.size(); ++i) {
    EXPECT_EQ(other_reactors[i]->reactions().front()->level(), static_cast<int>(i));
  }
}

TEST_F(GraphTest, IndexOfUnknownReactionIsSize) {
  Environment env(clock);
  Counter inside(env, 10_ms, 1);
  env.assemble();
  Environment other(clock);
  Counter outside(other, 10_ms, 1);
  const DependencyGraph& graph = env.graph();
  EXPECT_EQ(graph.index_of(*inside.reactions().front()), 0U);
  EXPECT_EQ(graph.index_of(*outside.reactions().front()), graph.reactions().size());
}

// --- flat tables and the environment's shared graph --------------------------

TEST_F(GraphTest, EdgeRowsAreSortedDeduplicatedAndMirrored) {
  // The reader both triggers on and reads the same port: one edge, not two.
  class TriggerAndRead final : public Reactor {
   public:
    Input<int> in{"in", this};
    explicit TriggerAndRead(Environment& env) : Reactor("both", env) {
      add_reaction("first", [] {}).triggered_by(in).reads(in);
      add_reaction("second", [] {});
    }
  };
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  TriggerAndRead both(env);
  env.connect(counter.out, both.in);
  const DependencyGraph& graph = env.graph();
  ASSERT_EQ(graph.reactions().size(), 3U);
  // counter/emit -> both/first (dataflow) -> both/second (priority).
  ASSERT_EQ(graph.successors(0).size(), 1U);
  EXPECT_EQ(graph.successors(0)[0], 1U);
  ASSERT_EQ(graph.successors(1).size(), 1U);
  EXPECT_EQ(graph.successors(1)[0], 2U);
  EXPECT_TRUE(graph.successors(2).empty());
  EXPECT_EQ(graph.edge_count(), 2U);
  // The reverse rows mirror the forward ones.
  for (std::size_t i = 0; i < graph.reactions().size(); ++i) {
    for (const std::uint32_t target : graph.successors(i)) {
      const auto predecessors = graph.predecessors(target);
      EXPECT_EQ(std::count(predecessors.begin(), predecessors.end(), i), 1);
    }
  }
  EXPECT_TRUE(graph.predecessors(0).empty());
}

TEST_F(GraphTest, PortClosureFollowsBindingsInStagingOrder) {
  // A source fanned out to two sinks stages its own triggers, then the
  // sinks' triggers from the last-bound sink back (depth first).
  class Fan final : public Reactor {
   public:
    Output<int> out{"out", this};
    Input<int> in{"in", this};
    explicit Fan(Environment& env) : Reactor("fan", env) {
      add_reaction("local", [] {}).triggered_by(out);
    }
  };
  Environment env(clock);
  Fan fan(env);
  Doubler first(env, "first");
  Doubler second(env, "second");
  env.connect(fan.out, first.in);
  env.connect(fan.out, second.in);
  (void)env.graph();
  // assemble() hands the graph's closure rows to the ports the scheduler
  // stages from.
  EXPECT_TRUE(fan.out.triggered_closure().empty());
  env.assemble();
  const auto closure = fan.out.triggered_closure();
  ASSERT_EQ(closure.size(), 3U);
  EXPECT_EQ(closure[0], fan.reactions().front());
  EXPECT_EQ(closure[1], second.reactions().front());
  EXPECT_EQ(closure[2], first.reactions().front());
  EXPECT_TRUE(fan.in.triggered_closure().empty());
  // A sink's row lists only its own downstream triggers.
  ASSERT_EQ(first.in.triggered_closure().size(), 1U);
  EXPECT_EQ(first.in.triggered_closure()[0], first.reactions().front());
}

TEST_F(GraphTest, EnvironmentBuildsOneGraphAndAssemblesFromIt) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler doubler(env, "d");
  env.connect(counter.out, doubler.in);
  EXPECT_FALSE(env.wiring_frozen());
  DependencyGraph& before = env.graph();
  EXPECT_TRUE(env.wiring_frozen());
  const auto& analysis = before.analyze();
  env.assemble();
  EXPECT_EQ(&env.graph(), &before);
  // The cached analysis is the one assemble() assigned levels from.
  EXPECT_EQ(&before.analyze(), &analysis);
  EXPECT_EQ(env.level_count(), 2);
  EXPECT_EQ(doubler.reactions().front()->level(), 1);
}

TEST_F(GraphTest, WiringAfterTheGraphIsBuiltThrows) {
  Environment env(clock);
  Counter counter(env, 10_ms, 1);
  Doubler doubler(env, "d");
  Doubler late(env, "late");
  (void)env.graph();
  EXPECT_THROW(env.connect(counter.out, doubler.in), std::logic_error);
  EXPECT_THROW(env.connect_delayed(counter.out, late.in, 5_ms), std::logic_error);
  EXPECT_THROW(Doubler(env, "extra"), std::logic_error);
  EXPECT_THROW(doubler.add_reaction("extra", [] {}), std::logic_error);
  EXPECT_THROW(doubler.reactions().front()->writes(late.in), std::logic_error);
  EXPECT_TRUE(doubler.in.inward_binding() == nullptr);
  EXPECT_TRUE(late.in.inward_binding() == nullptr);
  EXPECT_EQ(env.top_level().size(), 3U);
  EXPECT_EQ(doubler.reactions().size(), 1U);
}

}  // namespace
}  // namespace dear::reactor
