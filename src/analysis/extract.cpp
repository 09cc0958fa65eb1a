#include "analysis/extract.hpp"

#include <algorithm>
#include <stdexcept>

#include "reactor/action.hpp"
#include "reactor/environment.hpp"
#include "reactor/graph.hpp"
#include "reactor/port.hpp"
#include "reactor/reaction.hpp"

namespace dear::analysis {

namespace {

constexpr std::uint32_t kNoPort = UINT32_MAX;

using Kind = reactor::Wiring::Kind;

/// A trigger or read: the reaction depends on the port's value.
[[nodiscard]] bool is_dependency(const reactor::Wiring& wiring) noexcept {
  return wiring.kind == Kind::kTrigger || wiring.kind == Kind::kRead;
}

[[nodiscard]] const reactor::BasePort& source_of(const reactor::BasePort& port) {
  const reactor::BasePort* source = &port;
  while (source->inward_binding() != nullptr) {
    source = source->inward_binding();
  }
  return *source;
}

/// Iterative Tarjan SCC over the graph's successor rows; returns
/// nontrivial components (size > 1, or a self-loop) as sorted index
/// lists, in discovery order.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> nontrivial_sccs(
    const reactor::DependencyGraph& graph) {
  const std::size_t n = graph.reactions().size();
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  std::vector<std::vector<std::uint32_t>> components;
  std::uint32_t counter = 0;

  struct Frame {
    std::uint32_t vertex;
    std::size_t edge;
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) {
      continue;
    }
    std::vector<Frame> frames{{root, 0}};
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const std::uint32_t v = frame.vertex;
      const std::span<const std::uint32_t> successors = graph.successors(v);
      if (frame.edge < successors.size()) {
        const std::uint32_t w = successors[frame.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = counter++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
        continue;
      }
      if (lowlink[v] == index[v]) {
        std::vector<std::uint32_t> component;
        while (true) {
          const std::uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component.push_back(w);
          if (w == v) {
            break;
          }
        }
        const bool self_loop = component.size() == 1 &&
                               std::find(successors.begin(), successors.end(), v) !=
                                   successors.end();
        if (component.size() > 1 || self_loop) {
          std::sort(component.begin(), component.end());
          components.push_back(std::move(component));
        }
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::uint32_t parent = frames.back().vertex;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
    }
  }
  return components;
}

/// Sizes the table once for `nodes`: exact row counts, and upper bounds
/// on what the rows' names and lists add to the pools.
void reserve(Facts& facts, const std::vector<NodeContext>& nodes) {
  std::size_t reactions = 0;
  std::size_t ports = 0;
  std::size_t indices = 0;
  std::size_t names = 0;
  std::size_t text = 0;
  for (const NodeContext& node : nodes) {
    const reactor::DependencyGraph& graph = node.environment->graph();
    reactions += graph.reactions().size();
    ports += graph.ports().size();
    indices += graph.edge_count();  // depends_on
    text += node.name.size();
    for (const reactor::BasePort* port : graph.ports()) {
      text += port->fqn().size();
    }
    for (std::size_t i = 0; i < graph.reactions().size(); ++i) {
      text += graph.reactions()[i]->fqn().size();
      for (const reactor::Wiring* wiring : graph.wiring(i)) {
        switch (wiring->kind) {
          case Kind::kTrigger:
          case Kind::kRead:
          case Kind::kWrite:
            // Triggers + reads and port readers take one entry per
            // dependency at most; effects and port writers one per effect.
            indices += 2;
            break;
          case Kind::kActionTrigger:
            ++names;
            text += wiring->action->name().size();
            break;
          case Kind::kStateRead:
          case Kind::kStateWrite:
            ++names;
            text += wiring->state.size();
            break;
          case Kind::kConnect:
            break;
        }
      }
    }
  }
  facts.reactions.reserve(facts.reactions.size() + reactions);
  facts.ports.reserve(facts.ports.size() + ports);
  facts.index_pool.reserve(facts.index_pool.size() + indices);
  facts.name_pool.reserve(facts.name_pool.size() + names);
  facts.text_pool.reserve(facts.text_pool.size() + text);
}

/// Per-extraction working storage, reused across nodes.
struct Scratch {
  std::vector<std::uint32_t> port_index;  // graph port row → fact port index
  std::vector<std::uint32_t> cursor;
};

/// Appends one node's reactions, ports and cycles to `facts`. Reaction
/// and port indices are global across calls (offset by what is already in
/// the table).
void extract_node(Facts& facts, const NodeContext& node, Scratch& scratch) {
  reactor::DependencyGraph& graph = node.environment->graph();
  const auto& analysis = graph.analyze();
  const auto& reactions = graph.reactions();
  const auto base = static_cast<std::uint32_t>(facts.reactions.size());
  const auto port_base = static_cast<std::uint32_t>(facts.ports.size());
  const Name node_name = facts.add_text(node.name);
  std::vector<std::uint32_t>& pool = facts.index_pool;

  // Ports enter the table at first use, keyed by their binding source.
  scratch.port_index.assign(graph.ports().size(), kNoPort);
  const auto port_slot = [&](const reactor::BasePort& port) -> std::uint32_t& {
    const reactor::BasePort& source = source_of(port);
    const std::size_t row = graph.index_of(source);
    if (row == graph.ports().size()) {
      throw std::logic_error("port '" + std::string(source.fqn()) + "' is not part of node '" +
                             node.name + "'");
    }
    return scratch.port_index[row];
  };
  const auto ensure_port = [&](const reactor::BasePort& port) {
    std::uint32_t& slot = port_slot(port);
    if (slot != kNoPort) {
      return;
    }
    slot = static_cast<std::uint32_t>(facts.ports.size());
    const reactor::BasePort& source = source_of(port);
    PortFact fact;
    fact.fqn = facts.add_text(source.fqn());
    fact.node = node_name;
    fact.writers.offset = static_cast<std::uint32_t>(pool.size());
    for (const reactor::Reaction* writer : graph.writers_of(source)) {
      pool.push_back(base + static_cast<std::uint32_t>(graph.index_of(*writer)));
    }
    fact.writers.size = static_cast<std::uint32_t>(pool.size()) - fact.writers.offset;
    facts.ports.push_back(fact);
  };
  // Appends the (deduplicated) table indices of the ports of the
  // declarations `keep` accepts.
  const auto port_list = [&](std::span<const reactor::Wiring* const> wiring, auto keep) {
    IndexList list{static_cast<std::uint32_t>(pool.size()), 0};
    for (const reactor::Wiring* declared : wiring) {
      if (!keep(*declared)) {
        continue;
      }
      const std::uint32_t index = port_slot(*declared->port);
      const auto begin = pool.begin() + list.offset;
      if (std::find(begin, pool.end(), index) == pool.end()) {
        pool.push_back(index);
        ++list.size;
      }
    }
    return list;
  };
  // Appends the names of the declarations of `kind`.
  const auto name_list = [&facts](std::span<const reactor::Wiring* const> wiring, Kind kind) {
    NameList list{static_cast<std::uint32_t>(facts.name_pool.size()), 0};
    for (const reactor::Wiring* declared : wiring) {
      if (declared->kind == kind) {
        facts.name_pool.push_back(facts.add_text(kind == Kind::kActionTrigger
                                                     ? declared->action->name()
                                                     : declared->state));
        ++list.size;
      }
    }
    return list;
  };

  for (std::size_t i = 0; i < reactions.size(); ++i) {
    const reactor::Reaction* reaction = reactions[i];
    const std::span<const reactor::Wiring* const> wiring = graph.wiring(i);
    for (const reactor::Wiring* declared : wiring) {
      if (is_dependency(*declared)) {
        ensure_port(*declared->port);
      }
    }
    for (const reactor::Wiring* declared : wiring) {
      if (declared->kind == Kind::kWrite) {
        ensure_port(*declared->port);
      }
    }
    // A port counts as a trigger when the reaction was declared
    // triggered_by that exact port object; reads() does not trigger.
    const auto is_trigger = [wiring](const reactor::BasePort& port) {
      return std::any_of(wiring.begin(), wiring.end(), [&port](const reactor::Wiring* declared) {
        return declared->kind == Kind::kTrigger && declared->port == &port;
      });
    };

    ReactionFact fact;
    fact.node = node_name;
    fact.fqn = facts.add_text(reaction->fqn());
    fact.level = graph.level_of(i);
    fact.entry = std::any_of(wiring.begin(), wiring.end(), [](const reactor::Wiring* declared) {
      return declared->kind == Kind::kActionTrigger;
    });
    fact.deadline = reaction->deadline();
    fact.wcet = reaction->has_modeled_cost() ? reaction->modeled_cost().upper_bound() : 0;
    fact.triggers = port_list(wiring, [&is_trigger](const reactor::Wiring& declared) {
      return is_dependency(declared) && is_trigger(*declared.port);
    });
    fact.reads = port_list(wiring, [&is_trigger](const reactor::Wiring& declared) {
      return is_dependency(declared) && !is_trigger(*declared.port);
    });
    fact.effects = port_list(
        wiring, [](const reactor::Wiring& declared) { return declared.kind == Kind::kWrite; });
    fact.trigger_actions = name_list(wiring, Kind::kActionTrigger);
    fact.depends_on.offset = static_cast<std::uint32_t>(pool.size());
    for (const std::uint32_t predecessor : graph.predecessors(i)) {
      pool.push_back(base + predecessor);
    }
    fact.depends_on.size = static_cast<std::uint32_t>(pool.size()) - fact.depends_on.offset;
    fact.state_reads = name_list(wiring, Kind::kStateRead);
    fact.state_writes = name_list(wiring, Kind::kStateWrite);
    facts.reactions.push_back(fact);
  }

  // Port readers, one entry per declared dependency in reaction order,
  // laid out as one contiguous block of rows.
  const std::size_t port_count = facts.ports.size() - port_base;
  scratch.cursor.assign(port_count, 0);
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const reactor::Wiring* declared : graph.wiring(i)) {
      if (is_dependency(*declared)) {
        ++scratch.cursor[port_slot(*declared->port) - port_base];
      }
    }
  }
  auto offset = static_cast<std::uint32_t>(pool.size());
  for (std::size_t p = 0; p < port_count; ++p) {
    facts.ports[port_base + p].readers = IndexList{offset, scratch.cursor[p]};
    scratch.cursor[p] = offset;
    offset += facts.ports[port_base + p].readers.size;
  }
  pool.resize(offset);
  for (std::size_t i = 0; i < reactions.size(); ++i) {
    for (const reactor::Wiring* declared : graph.wiring(i)) {
      if (is_dependency(*declared)) {
        pool[scratch.cursor[port_slot(*declared->port) - port_base]++] =
            base + static_cast<std::uint32_t>(i);
      }
    }
  }

  // Only a cyclic graph has nontrivial strongly-connected components.
  if (!analysis.acyclic) {
    for (std::vector<std::uint32_t>& component : nontrivial_sccs(graph)) {
      for (std::uint32_t& member : component) {
        member += base;
      }
      facts.cycles.push_back(std::move(component));
    }
  }

  facts.level_count = std::max(facts.level_count, analysis.level_count);
}

}  // namespace

Facts extract(const std::vector<NodeContext>& nodes) {
  Facts facts;
  reserve(facts, nodes);
  Scratch scratch;
  for (const NodeContext& node : nodes) {
    extract_node(facts, node, scratch);
  }
  return facts;
}

}  // namespace dear::analysis
