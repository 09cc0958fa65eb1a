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
    for (const reactor::Reaction* reaction : graph.reactions()) {
      // Triggers + reads and port readers take one entry per dependency
      // at most; effects and port writers one per effect.
      indices += 2 * (reaction->dependency_ports().size() + reaction->effect_ports().size());
      text += reaction->fqn().size();
      names += reaction->trigger_actions().size() + reaction->state_reads().size() +
               reaction->state_writes().size();
      for (const reactor::BaseAction* action : reaction->trigger_actions()) {
        text += action->name().size();
      }
      for (const std::string& name : reaction->state_reads()) {
        text += name.size();
      }
      for (const std::string& name : reaction->state_writes()) {
        text += name.size();
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
      throw std::logic_error("port '" + source.fqn() + "' is not part of node '" + node.name +
                             "'");
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
    for (const reactor::Reaction* writer : reactor::DependencyGraph::writers_of(source)) {
      pool.push_back(base + static_cast<std::uint32_t>(graph.index_of(*writer)));
    }
    fact.writers.size = static_cast<std::uint32_t>(pool.size()) - fact.writers.offset;
    facts.ports.push_back(fact);
  };
  // Appends the (deduplicated) table indices of the ports `keep` accepts.
  const auto port_list = [&](const std::vector<reactor::BasePort*>& ports, auto keep) {
    IndexList list{static_cast<std::uint32_t>(pool.size()), 0};
    for (const reactor::BasePort* port : ports) {
      if (!keep(*port)) {
        continue;
      }
      const std::uint32_t index = port_slot(*port);
      const auto begin = pool.begin() + list.offset;
      if (std::find(begin, pool.end(), index) == pool.end()) {
        pool.push_back(index);
        ++list.size;
      }
    }
    return list;
  };

  for (std::size_t i = 0; i < reactions.size(); ++i) {
    const reactor::Reaction* reaction = reactions[i];
    for (const reactor::BasePort* port : reaction->dependency_ports()) {
      ensure_port(*port);
    }
    for (const reactor::BasePort* port : reaction->effect_ports()) {
      ensure_port(*port);
    }
    // triggered_by registers on the exact port object the reaction was
    // declared with; reads() does not.
    const auto is_trigger = [reaction](const reactor::BasePort& port) {
      const auto& triggered = port.triggered_reactions();
      return std::find(triggered.begin(), triggered.end(), reaction) != triggered.end();
    };

    ReactionFact fact;
    fact.node = node_name;
    fact.fqn = facts.add_text(reaction->fqn());
    fact.level = graph.level_of(i);
    fact.entry = !reaction->trigger_actions().empty();
    fact.deadline = reaction->deadline();
    fact.wcet = reaction->has_modeled_cost() ? reaction->modeled_cost().upper_bound() : 0;
    fact.triggers = port_list(reaction->dependency_ports(), is_trigger);
    fact.reads = port_list(reaction->dependency_ports(),
                           [&is_trigger](const reactor::BasePort& port) { return !is_trigger(port); });
    fact.effects = port_list(reaction->effect_ports(), [](const reactor::BasePort&) { return true; });
    fact.trigger_actions.offset = static_cast<std::uint32_t>(facts.name_pool.size());
    for (const reactor::BaseAction* action : reaction->trigger_actions()) {
      facts.name_pool.push_back(facts.add_text(action->name()));
    }
    fact.trigger_actions.size =
        static_cast<std::uint32_t>(facts.name_pool.size()) - fact.trigger_actions.offset;
    fact.depends_on.offset = static_cast<std::uint32_t>(pool.size());
    for (const std::uint32_t predecessor : graph.predecessors(i)) {
      pool.push_back(base + predecessor);
    }
    fact.depends_on.size = static_cast<std::uint32_t>(pool.size()) - fact.depends_on.offset;
    fact.state_reads = facts.add_names(reaction->state_reads());
    fact.state_writes = facts.add_names(reaction->state_writes());
    facts.reactions.push_back(fact);
  }

  // Port readers, one entry per declared dependency in reaction order,
  // laid out as one contiguous block of rows.
  const std::size_t port_count = facts.ports.size() - port_base;
  scratch.cursor.assign(port_count, 0);
  for (const reactor::Reaction* reaction : reactions) {
    for (const reactor::BasePort* port : reaction->dependency_ports()) {
      ++scratch.cursor[port_slot(*port) - port_base];
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
    for (const reactor::BasePort* port : reactions[i]->dependency_ports()) {
      pool[scratch.cursor[port_slot(*port) - port_base]++] = base + static_cast<std::uint32_t>(i);
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
