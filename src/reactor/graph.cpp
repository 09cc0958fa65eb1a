#include "reactor/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "reactor/action.hpp"
#include "reactor/environment.hpp"
#include "reactor/port.hpp"
#include "reactor/reaction.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

namespace {

/// A table under construction; copied into the graph's buffer once the
/// buffer is sized.
template <typename T>
struct Rows {
  std::vector<std::uint32_t> offsets;
  std::vector<T> values;

  [[nodiscard]] std::span<const T> operator[](std::size_t row) const noexcept {
    return {values.data() + offsets[row], values.data() + offsets[row + 1]};
  }
};

/// Working storage of a graph build, kept per thread: a warm build
/// allocates only the buffer the graph keeps.
struct Scratch {
  std::vector<Reaction*> reactions;
  std::vector<BasePort*> ports;
  std::vector<BaseAction*> actions;
  Rows<const Wiring*> wiring;           // per reaction
  Rows<Reaction*> writers;              // per port
  Rows<Reaction*> triggers;             // per port: triggered_by(port)
  Rows<std::uint32_t> outward;          // per port: rows of the bound sinks
  Rows<Reaction*> action_triggers;      // per action
  Rows<Reaction*> closures;             // per port
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint64_t> edges;     // (from << 32) | to
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> queue;
  std::vector<int> levels;
};

Scratch& scratch() {
  thread_local Scratch instance;
  return instance;
}

void collect(Reactor* reactor, Scratch& s) {
  // A reactor's reactions land contiguously, in priority order.
  s.reactions.insert(s.reactions.end(), reactor->reactions().begin(), reactor->reactions().end());
  s.ports.insert(s.ports.end(), reactor->ports().begin(), reactor->ports().end());
  s.actions.insert(s.actions.end(), reactor->actions().begin(), reactor->actions().end());
  for (Reactor* child : reactor->children()) {
    collect(child, s);
  }
}

/// Turns per-row counts in offsets[1..rows] into row offsets.
void prefix_sum(std::span<std::uint32_t> offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
}

/// Builds `rows` rows from the (row, value) pairs that `each(emit)` emits:
/// a counting pass, then a filling pass, so every row keeps emission order.
template <typename T, typename Each>
void build_rows(Rows<T>& out, std::size_t rows, std::vector<std::uint32_t>& cursor, Each&& each) {
  out.offsets.assign(rows + 1, 0);
  each([&out](std::uint32_t row, const T&) { ++out.offsets[row + 1]; });
  prefix_sum(out.offsets);
  out.values.resize(out.offsets.back());
  cursor.assign(out.offsets.begin(), out.offsets.end() - 1);
  each([&out, &cursor](std::uint32_t row, const T& value) { out.values[cursor[row]++] = value; });
}

/// Lays typed arrays out back to back in one buffer. Run once without a
/// buffer to measure, then again over a buffer of size() bytes.
class Carver {
 public:
  explicit Carver(std::byte* base) noexcept : base_(base) {}

  template <typename T>
  std::span<T> take(std::size_t count) noexcept {
    used_ = (used_ + alignof(T) - 1) / alignof(T) * alignof(T);
    std::span<T> span;
    if (base_ != nullptr) {
      span = std::span<T>(reinterpret_cast<T*>(base_ + used_), count);
    }
    used_ += count * sizeof(T);
    return span;
  }

  template <typename T>
  CsrTable<T> table(std::size_t rows, std::size_t values) noexcept {
    CsrTable<T> out;
    out.offsets = take<std::uint32_t>(rows + 1);
    out.values = take<T>(values);
    return out;
  }

  [[nodiscard]] std::size_t size() const noexcept { return used_; }

 private:
  std::byte* base_;
  std::size_t used_{0};
};

template <typename T>
void copy_rows(const Rows<T>& from, CsrTable<T>& to) {
  std::copy(from.offsets.begin(), from.offsets.end(), to.offsets.begin());
  std::copy(from.values.begin(), from.values.end(), to.values.begin());
}

/// `row`, the row `element` recorded, after checking that it is the
/// element's row in `table`.
template <typename T>
std::uint32_t checked_row(const std::vector<T*>& table, const T& element, std::uint32_t row,
                          const char* kind) {
  if (row >= table.size() || table[row] != &element) {
    throw std::logic_error(std::string(kind) + " '" + std::string(element.fqn()) +
                           "' is not part of this reactor graph");
  }
  return row;
}

const BasePort& source_of(const BasePort& port) noexcept {
  const BasePort* source = &port;
  while (source->inward_binding() != nullptr) {
    source = source->inward_binding();
  }
  return *source;
}

}  // namespace

DependencyGraph::DependencyGraph(const Environment& environment) {
  Scratch& s = scratch();
  s.reactions.clear();
  s.ports.clear();
  s.actions.clear();
  for (Reactor* reactor : environment.top_level()) {
    collect(reactor, s);
  }
  const std::size_t n = s.reactions.size();
  const std::size_t p = s.ports.size();
  const std::size_t a = s.actions.size();
  for (std::size_t i = 0; i < n; ++i) {
    s.reactions[i]->graph_row_ = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < p; ++i) {
    s.ports[i]->graph_row_ = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < a; ++i) {
    s.actions[i]->graph_row_ = static_cast<std::uint32_t>(i);
  }
  const auto reaction_row = [&s](const Reaction& reaction) {
    return checked_row(s.reactions, reaction, reaction.graph_row_, "reaction");
  };
  const auto port_row = [&s](const BasePort& port) {
    return checked_row(s.ports, port, port.graph_row_, "port");
  };
  const auto action_row = [&s](const BaseAction& action) {
    return checked_row(s.actions, action, action.graph_row_, "action");
  };

  // --- per-element wiring, from the environment's record ----------------------
  const Wiring* const record = environment.wiring();
  const auto each_of = [record](Wiring::Kind kind, auto&& visit) {
    for (const Wiring* wiring = record; wiring != nullptr; wiring = wiring->next) {
      if (wiring->kind == kind) {
        visit(*wiring);
      }
    }
  };
  build_rows(s.wiring, n, s.counts, [&](auto&& emit) {
    for (const Wiring* wiring = record; wiring != nullptr; wiring = wiring->next) {
      if (wiring->reaction != nullptr) {
        emit(reaction_row(*wiring->reaction), wiring);
      }
    }
  });
  build_rows(s.writers, p, s.counts, [&](auto&& emit) {
    each_of(Wiring::Kind::kWrite,
            [&](const Wiring& wiring) { emit(port_row(*wiring.port), wiring.reaction); });
  });
  build_rows(s.triggers, p, s.counts, [&](auto&& emit) {
    each_of(Wiring::Kind::kTrigger,
            [&](const Wiring& wiring) { emit(port_row(*wiring.port), wiring.reaction); });
  });
  build_rows(s.outward, p, s.counts, [&](auto&& emit) {
    each_of(Wiring::Kind::kConnect,
            [&](const Wiring& wiring) { emit(port_row(*wiring.port), port_row(*wiring.sink)); });
  });
  build_rows(s.action_triggers, a, s.counts, [&](auto&& emit) {
    each_of(Wiring::Kind::kActionTrigger,
            [&](const Wiring& wiring) { emit(action_row(*wiring.action), wiring.reaction); });
  });

  // --- trigger closures ---------------------------------------------------------
  // A port's closure holds its own triggers and those of every port
  // transitively bound downstream of it, depth first from the last-bound
  // sink: the staging order the scheduler walks.
  s.closures.offsets.assign(1, 0);
  s.closures.values.clear();
  for (std::uint32_t port = 0; port < p; ++port) {
    s.frontier.assign(1, port);
    while (!s.frontier.empty()) {
      const std::uint32_t next = s.frontier.back();
      s.frontier.pop_back();
      for (Reaction* reaction : s.triggers[next]) {
        s.closures.values.push_back(reaction);
      }
      for (const std::uint32_t sink : s.outward[next]) {
        s.frontier.push_back(sink);
      }
    }
    s.closures.offsets.push_back(static_cast<std::uint32_t>(s.closures.values.size()));
  }

  // --- edges ----------------------------------------------------------------------
  std::vector<std::uint64_t>& edges = s.edges;
  edges.clear();
  const auto add = [&edges](std::uint32_t from, std::uint32_t to) {
    edges.push_back((std::uint64_t{from} << 32) | to);
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const Wiring* wiring : s.wiring[i]) {
      if (wiring->kind == Wiring::Kind::kWrite) {
        // Port dataflow: a writer precedes every reaction its write stages.
        for (const Reaction* reader : s.closures[port_row(*wiring->port)]) {
          add(i, reader->graph_row_);
        }
      } else if (wiring->kind == Wiring::Kind::kTrigger || wiring->kind == Wiring::Kind::kRead) {
        // Reads that do not trigger still order the reader after the
        // writer (writers register on the source of the binding chain).
        for (const Reaction* writer : s.writers[port_row(source_of(*wiring->port))]) {
          add(writer->graph_row_, i);
        }
      }
    }
    // Intra-reactor priority chain.
    if (i + 1 < n && s.reactions[i + 1]->container() == s.reactions[i]->container()) {
      add(i, i + 1);
    }
  }
  // A port that both triggers and is read contributes the same edge twice.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // --- the one buffer -------------------------------------------------------------
  const auto layout = [&](Carver& carve) {
    reactions_ = carve.take<Reaction*>(n);
    ports_ = carve.take<BasePort*>(p);
    actions_ = carve.take<BaseAction*>(a);
    wiring_ = carve.table<const Wiring*>(n, s.wiring.values.size());
    writers_ = carve.table<Reaction*>(p, s.writers.values.size());
    closures_ = carve.table<Reaction*>(p, s.closures.values.size());
    action_triggers_ = carve.table<Reaction*>(a, s.action_triggers.values.size());
    successors_ = carve.table<std::uint32_t>(n, edges.size());
    predecessors_ = carve.table<std::uint32_t>(n, edges.size());
    level_ = carve.take<int>(n);
    level_offsets_ = carve.take<std::uint32_t>(n + 1);
    by_level_.values = carve.take<Reaction*>(n);
  };
  Carver measure(nullptr);
  layout(measure);
  storage_ = std::make_unique<std::byte[]>(measure.size());
  Carver carve(storage_.get());
  layout(carve);

  std::copy(s.reactions.begin(), s.reactions.end(), reactions_.begin());
  std::copy(s.ports.begin(), s.ports.end(), ports_.begin());
  std::copy(s.actions.begin(), s.actions.end(), actions_.begin());
  copy_rows(s.wiring, wiring_);
  copy_rows(s.writers, writers_);
  copy_rows(s.closures, closures_);
  copy_rows(s.action_triggers, action_triggers_);

  // The edge rows count up from the zeroed buffer (make_unique
  // value-initializes it).
  for (const std::uint64_t edge : edges) {
    const auto from = static_cast<std::uint32_t>(edge >> 32);
    const auto to = static_cast<std::uint32_t>(edge);
    ++successors_.offsets[from + 1];
    ++predecessors_.offsets[to + 1];
  }
  prefix_sum(successors_.offsets);
  prefix_sum(predecessors_.offsets);
  // Sorted by (from, to): successor rows come out in order, and walking
  // the edges by ascending source keeps every predecessor row sorted.
  std::vector<std::uint32_t>& cursor = s.counts;
  cursor.assign(predecessors_.offsets.begin(), predecessors_.offsets.end() - 1);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    successors_.values[e] = static_cast<std::uint32_t>(edges[e]);
    predecessors_.values[cursor[static_cast<std::uint32_t>(edges[e])]++] =
        static_cast<std::uint32_t>(edges[e] >> 32);
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
  std::fill(level_.begin(), level_.end(), 0);
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
  if (!analysis_.acyclic) {
    by_level_.offsets = {};  // no rows
    return;
  }
  // Counting sort by level; graph order within a level.
  by_level_.offsets = level_offsets_.first(static_cast<std::size_t>(analysis_.level_count) + 1);
  std::fill(by_level_.offsets.begin(), by_level_.offsets.end(), 0);
  for (const int level : level_) {
    ++by_level_.offsets[static_cast<std::size_t>(level) + 1];
  }
  prefix_sum(by_level_.offsets);
  std::vector<std::uint32_t>& cursor = scratch().counts;
  cursor.assign(by_level_.offsets.begin(), by_level_.offsets.end() - 1);
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
    plan.entries.push_back(SchedulePlan::Entry{std::string(reactions_[i]->fqn()), level_[i]});
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
  std::unordered_map<std::string_view, int> planned;
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
  std::vector<int>& levels = scratch().levels;
  levels.assign(reactions_.size(), 0);
  int max_level = -1;
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    const auto it = planned.find(reactions_[i]->fqn());
    if (it == planned.end()) {
      throw std::logic_error("schedule plan is stale: no entry for reaction '" +
                             std::string(reactions_[i]->fqn()) + "'");
    }
    levels[i] = it->second;
    max_level = std::max(max_level, it->second);
  }
  // Every edge must stay level-monotone, or the scheduler would release a
  // reaction before its predecessors — the plan no longer fits the graph.
  for (std::size_t i = 0; i < reactions_.size(); ++i) {
    for (const std::uint32_t target : successors_[i]) {
      if (levels[i] >= levels[target]) {
        throw std::logic_error("schedule plan is stale: edge '" +
                               std::string(reactions_[i]->fqn()) + "' -> '" +
                               std::string(reactions_[target]->fqn()) +
                               "' is not level-monotone under the plan");
      }
    }
  }

  // Commit: fill the cached analysis state exactly as analyze() would, so
  // levels()/level_of() behave identically with or without a plan.
  std::copy(levels.begin(), levels.end(), level_.begin());
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

void DependencyGraph::bind_closures() const {
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i]->closure_ = closures_[i];
  }
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    actions_[i]->triggers_ = action_triggers_[i];
  }
}

std::span<Reaction* const> DependencyGraph::writers_of(const BasePort& port) const noexcept {
  const std::size_t row = index_of(source_of(port));
  if (row == ports_.size()) {
    return {};
  }
  return writers_[row];
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
