#include "reactor/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "reactor/port.hpp"
#include "reactor/reaction.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

namespace {

/// Working storage of a graph build, kept per thread: a build allocates
/// only the tables the graph keeps.
struct Scratch {
  std::vector<const BasePort*> frontier;
  std::vector<std::uint64_t> edges;  // (from << 32) | to
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> queue;
};

Scratch& scratch() {
  thread_local Scratch instance;
  return instance;
}

/// Calls visit(reaction) for the triggers of `port` and of every port
/// transitively bound downstream of it, depth first from the last-bound
/// sink: the staging order of the closure the scheduler walks.
template <typename Visit>
void visit_closure(const BasePort& port, std::vector<const BasePort*>& frontier, Visit&& visit) {
  frontier.assign(1, &port);
  while (!frontier.empty()) {
    const BasePort* next = frontier.back();
    frontier.pop_back();
    for (Reaction* reaction : next->triggered_reactions()) {
      visit(reaction);
    }
    frontier.insert(frontier.end(), next->outward_bindings().begin(),
                    next->outward_bindings().end());
  }
}

void count_elements(const Reactor& reactor, std::size_t& reactions, std::size_t& ports) {
  reactions += reactor.reactions().size();
  ports += reactor.ports().size();
  for (const Reactor* child : reactor.children()) {
    count_elements(*child, reactions, ports);
  }
}

/// Turns per-row counts in offsets[1..rows] into row offsets.
void prefix_sum(std::vector<std::uint32_t>& offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
}

}  // namespace

DependencyGraph::DependencyGraph(const std::vector<Reactor*>& top_level) {
  std::size_t reaction_count = 0;
  std::size_t port_count = 0;
  for (const Reactor* reactor : top_level) {
    count_elements(*reactor, reaction_count, port_count);
  }
  reactions_.reserve(reaction_count);
  ports_.reserve(port_count);
  for (Reactor* reactor : top_level) {
    collect(reactor);
  }
  build_closures();
  build_edges();
}

void DependencyGraph::collect(Reactor* reactor) {
  // A reactor's reactions land contiguously, in priority order.
  for (const auto& reaction : reactor->reactions()) {
    reaction->graph_row_ = static_cast<std::uint32_t>(reactions_.size());
    reactions_.push_back(reaction.get());
  }
  for (BasePort* port : reactor->ports()) {
    port->graph_row_ = static_cast<std::uint32_t>(ports_.size());
    ports_.push_back(port);
  }
  for (Reactor* child : reactor->children()) {
    collect(child);
  }
}

std::uint32_t DependencyGraph::row_of(const Reaction& reaction) const {
  const std::size_t row = index_of(reaction);
  if (row == reactions_.size()) {
    throw std::logic_error("reaction '" + reaction.fqn() + "' is not part of this reactor graph");
  }
  return static_cast<std::uint32_t>(row);
}

void DependencyGraph::build_closures() {
  std::vector<const BasePort*>& frontier = scratch().frontier;
  std::size_t total = 0;
  for (const BasePort* port : ports_) {
    visit_closure(*port, frontier, [&total](Reaction*) { ++total; });
  }
  closures_.offsets.reserve(ports_.size() + 1);
  closures_.offsets.push_back(0);
  closures_.values.reserve(total);
  for (const BasePort* port : ports_) {
    visit_closure(*port, frontier, [this](Reaction* reaction) {
      closures_.values.push_back(reaction);
    });
    closures_.offsets.push_back(static_cast<std::uint32_t>(closures_.values.size()));
  }
}

void DependencyGraph::build_edges() {
  const std::size_t n = reactions_.size();
  std::vector<std::uint64_t>& edges = scratch().edges;
  edges.clear();
  const auto add = [&edges](std::uint32_t from, std::uint32_t to) {
    edges.push_back((std::uint64_t{from} << 32) | to);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const Reaction& reaction = *reactions_[i];
    // Port dataflow: a writer precedes every reaction its write stages.
    for (const BasePort* effect : reaction.effect_ports()) {
      const std::size_t port = index_of(*effect);
      if (port == ports_.size()) {
        throw std::logic_error("port '" + effect->fqn() + "' is not part of this reactor graph");
      }
      for (const Reaction* reader : closures_[port]) {
        add(i, row_of(*reader));
      }
    }
    // Reads that do not trigger still order the reader after the writer
    // (writers register on the source of the binding chain).
    for (const BasePort* dependency : reaction.dependency_ports()) {
      for (const Reaction* writer : writers_of(*dependency)) {
        add(row_of(*writer), i);
      }
    }
    // Intra-reactor priority chain.
    if (i + 1 < n && reactions_[i + 1]->container() == reaction.container()) {
      add(i, i + 1);
    }
  }
  // A port that both triggers and is read contributes the same edge twice.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  successors_.offsets.assign(n + 1, 0);
  predecessors_.offsets.assign(n + 1, 0);
  successors_.values.resize(edges.size());
  predecessors_.values.resize(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto from = static_cast<std::uint32_t>(edges[e] >> 32);
    const auto to = static_cast<std::uint32_t>(edges[e]);
    ++successors_.offsets[from + 1];
    ++predecessors_.offsets[to + 1];
    successors_.values[e] = to;  // sorted by (from, to): rows come out in order
  }
  prefix_sum(successors_.offsets);
  prefix_sum(predecessors_.offsets);
  // Walking the edges by ascending source keeps every predecessor row sorted.
  std::vector<std::uint32_t>& cursor = scratch().counts;
  cursor.assign(predecessors_.offsets.begin(), predecessors_.offsets.end() - 1);
  for (const std::uint64_t edge : edges) {
    predecessors_.values[cursor[static_cast<std::uint32_t>(edge)]++] =
        static_cast<std::uint32_t>(edge >> 32);
  }
}

const DependencyGraph::LevelAnalysis& DependencyGraph::analyze() {
  if (analyzed_) {
    return analysis_;
  }
  // Kahn's algorithm; a reaction's level is its longest path from a root.
  const std::size_t n = reactions_.size();
  std::vector<std::uint32_t>& indegree = scratch().counts;
  std::vector<std::uint32_t>& queue = scratch().queue;
  indegree.resize(n);
  queue.clear();
  level_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    indegree[i] = static_cast<std::uint32_t>(predecessors_[i].size());
    if (indegree[i] == 0) {
      queue.push_back(i);
    }
  }
  int max_level = -1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t node = queue[head];
    max_level = std::max(max_level, level_[node]);
    for (const std::uint32_t target : successors_[node]) {
      level_[target] = std::max(level_[target], level_[node] + 1);
      if (--indegree[target] == 0) {
        queue.push_back(target);
      }
    }
  }
  analysis_.acyclic = queue.size() == n;
  analysis_.level_count = max_level + 1;
  analysis_.cyclic.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] > 0) {
      analysis_.cyclic.push_back(i);
      level_[i] = -1;
    }
  }
  group_by_level();
  analyzed_ = true;
  return analysis_;
}

void DependencyGraph::group_by_level() {
  by_level_.offsets.clear();
  by_level_.values.clear();
  if (!analysis_.acyclic) {
    return;
  }
  // Counting sort by level; graph order within a level.
  by_level_.offsets.assign(static_cast<std::size_t>(analysis_.level_count) + 1, 0);
  for (const int level : level_) {
    ++by_level_.offsets[static_cast<std::size_t>(level) + 1];
  }
  prefix_sum(by_level_.offsets);
  std::vector<std::uint32_t>& cursor = scratch().counts;
  cursor.assign(by_level_.offsets.begin(), by_level_.offsets.end() - 1);
  by_level_.values.resize(reactions_.size());
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    by_level_.values[cursor[static_cast<std::size_t>(level_[i])]++] = reactions_[i];
  }
}

int DependencyGraph::assign_levels() {
  const LevelAnalysis& analysis = analyze();
  if (!analysis.acyclic) {
    // Collect the reactions on cycles for the error message.
    std::string names;
    for (const std::size_t i : analysis.cyclic) {
      if (!names.empty()) {
        names += ", ";
      }
      names += reactions_[i]->fqn();
    }
    throw std::logic_error("reactor program has a dependency cycle involving: " + names);
  }
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    reactions_[i]->set_level(level_[i]);
  }
  level_count_ = analysis.level_count;
  return level_count_ < 1 ? 1 : level_count_;
}

SchedulePlan DependencyGraph::export_plan() {
  const LevelAnalysis& analysis = analyze();
  if (!analysis.acyclic) {
    throw std::logic_error("cannot export a schedule plan from a cyclic reactor program");
  }
  SchedulePlan plan;
  plan.entries.reserve(reactions_.size());
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    plan.entries.push_back(SchedulePlan::Entry{reactions_[i]->fqn(), level_[i]});
  }
  plan.level_count = analysis.level_count;
  return plan;
}

int DependencyGraph::apply_plan(const SchedulePlan& plan) {
  if (plan.entries.size() != reactions_.size()) {
    throw std::logic_error("schedule plan is stale: plan lists " +
                           std::to_string(plan.entries.size()) + " reactions, graph has " +
                           std::to_string(reactions_.size()));
  }
  // Match plan entries to live reactions by fqn; fqns are unique within an
  // environment, so a bijection exists iff every lookup succeeds.
  std::unordered_map<std::string, int> planned;
  planned.reserve(plan.entries.size());
  for (const SchedulePlan::Entry& entry : plan.entries) {
    if (entry.level < 0 || entry.level >= plan.level_count) {
      throw std::logic_error("schedule plan is invalid: level " + std::to_string(entry.level) +
                             " of '" + entry.fqn + "' is out of range");
    }
    if (!planned.emplace(entry.fqn, entry.level).second) {
      throw std::logic_error("schedule plan is invalid: duplicate entry for '" + entry.fqn + "'");
    }
  }
  std::vector<int> levels(reactions_.size(), 0);
  int max_level = -1;
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    const auto it = planned.find(reactions_[i]->fqn());
    if (it == planned.end()) {
      throw std::logic_error("schedule plan is stale: no entry for reaction '" +
                             reactions_[i]->fqn() + "'");
    }
    levels[i] = it->second;
    max_level = std::max(max_level, it->second);
  }
  // Every edge must stay level-monotone, or the scheduler would release a
  // reaction before its predecessors — the plan no longer fits the graph.
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    for (const std::uint32_t target : successors_[i]) {
      if (levels[i] >= levels[target]) {
        throw std::logic_error("schedule plan is stale: edge '" + reactions_[i]->fqn() +
                               "' -> '" + reactions_[target]->fqn() +
                               "' is not level-monotone under the plan");
      }
    }
  }

  // Commit: fill the cached analysis state exactly as analyze() would, so
  // levels()/level_of() behave identically with or without a plan.
  level_ = std::move(levels);
  analysis_.acyclic = true;
  analysis_.level_count = max_level + 1;
  analysis_.cyclic.clear();
  group_by_level();
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    reactions_[i]->set_level(level_[i]);
  }
  analyzed_ = true;
  level_count_ = analysis_.level_count;
  return level_count_ < 1 ? 1 : level_count_;
}

void DependencyGraph::bind_port_closures() const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->closure_ = closures_[i];
  }
}

const std::vector<Reaction*>& DependencyGraph::writers_of(const BasePort& port) noexcept {
  const BasePort* source = &port;
  while (source->inward_binding() != nullptr) {
    source = source->inward_binding();
  }
  return source->writers();
}

std::vector<const Reaction*> DependencyGraph::dependencies_of(const Reaction& reaction) const {
  std::vector<const Reaction*> deps;
  const std::size_t row = index_of(reaction);
  if (row == reactions_.size()) {
    return deps;
  }
  for (const std::uint32_t predecessor : predecessors_[row]) {
    deps.push_back(reactions_[predecessor]);
  }
  return deps;
}

std::size_t DependencyGraph::index_of(const Reaction& reaction) const noexcept {
  const std::size_t row = reaction.graph_row_;
  return row < reactions_.size() && reactions_[row] == &reaction ? row : reactions_.size();
}

std::size_t DependencyGraph::index_of(const BasePort& port) const noexcept {
  const std::size_t row = port.graph_row_;
  return row < ports_.size() && ports_[row] == &port ? row : ports_.size();
}

}  // namespace dear::reactor
