#include "analysis/timing.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string_view>
#include <unordered_set>

namespace dear::analysis {

namespace {

/// Longest WCET-weighted path through `node`'s intra-node precedence graph
/// ending at reaction i. Memoized; a visiting guard breaks the (never
/// expected) cyclic case by treating the back edge as a path break.
Duration path_wcet_ending_at(const Facts& facts, std::size_t i, std::vector<Duration>& memo,
                             std::vector<char>& visiting) {
  if (memo[i] >= 0) {
    return memo[i];
  }
  if (visiting[i] != 0) {
    return 0;
  }
  visiting[i] = 1;
  Duration best = 0;
  for (const std::uint32_t p : facts.list(facts.reactions[i].depends_on)) {
    if (facts.text(facts.reactions[p].node) != facts.text(facts.reactions[i].node)) {
      continue;
    }
    best = std::max(best, path_wcet_ending_at(facts, p, memo, visiting));
  }
  visiting[i] = 0;
  memo[i] = best + facts.reactions[i].wcet;
  return memo[i];
}

/// The tagged service-channel graph at node granularity. Parallel channels
/// between the same node pair (e.g. Preprocessing.lane alongside
/// Preprocessing.forwarded_frame) collapse into one edge carrying the
/// worst (largest) hop latency.
struct ChannelEdge {
  std::string client;
  Duration latency{0};
};

struct ChannelGraph {
  // server node → outgoing edges, both in channel declaration order.
  std::vector<std::pair<std::string, std::vector<ChannelEdge>>> adjacency;
  std::unordered_set<std::string> has_inbound;

  [[nodiscard]] const std::vector<ChannelEdge>* edges_of(const std::string& node) const {
    for (const auto& [server, edges] : adjacency) {
      if (server == node) {
        return &edges;
      }
    }
    return nullptr;
  }
};

[[nodiscard]] ChannelGraph build_channel_graph(const Facts& facts) {
  ChannelGraph graph;
  for (const ChannelFact& channel : facts.channels) {
    if (!channel.tagged) {
      continue;
    }
    graph.has_inbound.insert(channel.client_node);
    std::vector<ChannelEdge>* edges = nullptr;
    for (auto& [server, list] : graph.adjacency) {
      if (server == channel.server_node) {
        edges = &list;
        break;
      }
    }
    if (edges == nullptr) {
      graph.adjacency.emplace_back(channel.server_node, std::vector<ChannelEdge>{});
      edges = &graph.adjacency.back().second;
    }
    bool merged = false;
    for (ChannelEdge& edge : *edges) {
      if (edge.client == channel.client_node) {
        edge.latency = std::max(edge.latency, channel.hop_latency());
        merged = true;
        break;
      }
    }
    if (!merged) {
      edges->push_back(ChannelEdge{channel.client_node, channel.hop_latency()});
    }
  }
  return graph;
}

/// Enumerates every acyclic path current→target through the channel graph,
/// invoking sink(path, latency) for each. Path state is shared across the
/// recursion (backtracking DFS).
template <typename Sink>
void enumerate_paths(const ChannelGraph& graph, const std::string& current,
                     const std::string& target, std::vector<std::string>& path,
                     Duration latency, const Sink& sink) {
  if (current == target) {
    sink(path, latency);
    return;
  }
  const std::vector<ChannelEdge>* edges = graph.edges_of(current);
  if (edges == nullptr) {
    return;
  }
  for (const ChannelEdge& edge : *edges) {
    if (std::find(path.begin(), path.end(), edge.client) != path.end()) {
      continue;
    }
    path.push_back(edge.client);
    enumerate_paths(graph, edge.client, target, path, latency + edge.latency, sink);
    path.pop_back();
  }
}

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void push_message(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int written = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (written > 0) {
    out.append(buffer, std::min(static_cast<std::size_t>(written), sizeof(buffer) - 1));
  }
}

[[nodiscard]] std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const std::string& node : path) {
    if (!out.empty()) {
      out += "->";
    }
    out += node;
  }
  return out;
}

}  // namespace

const NodeTiming* TimingAnalysis::find_node(const std::string& node) const noexcept {
  for (const NodeTiming& entry : nodes) {
    if (entry.node == node) {
      return &entry;
    }
  }
  return nullptr;
}

TimingAnalysis analyze_timing(const Facts& facts) {
  TimingAnalysis out;

  // Per-node physical summary, node first-appearance order.
  std::vector<Duration> memo(facts.reactions.size(), Duration{-1});
  std::vector<char> visiting(facts.reactions.size(), 0);
  for (std::size_t i = 0; i < facts.reactions.size(); ++i) {
    const ReactionFact& reaction = facts.reactions[i];
    const std::string_view node = facts.text(reaction.node);
    NodeTiming* timing = nullptr;
    for (NodeTiming& entry : out.nodes) {
      if (entry.node == node) {
        timing = &entry;
        break;
      }
    }
    if (timing == nullptr) {
      out.nodes.push_back(NodeTiming{std::string(node), Duration{0}, Duration{0}});
      timing = &out.nodes.back();
    }
    timing->critical_path_wcet =
        std::max(timing->critical_path_wcet, path_wcet_ending_at(facts, i, memo, visiting));
    if (reaction.deadline > 0 &&
        (timing->tightest_deadline == 0 || reaction.deadline < timing->tightest_deadline)) {
      timing->tightest_deadline = reaction.deadline;
    }
  }

  // Chains: sensor sources are nodes with an entry reaction and no inbound
  // tagged channel; every budget anchors one or more source→sink paths.
  const ChannelGraph graph = build_channel_graph(facts);
  std::vector<std::string> sources;
  for (const NodeTiming& entry : out.nodes) {
    if (graph.has_inbound.count(entry.node) != 0) {
      continue;
    }
    for (const ReactionFact& reaction : facts.reactions) {
      if (facts.text(reaction.node) == entry.node && reaction.entry) {
        sources.push_back(entry.node);
        break;
      }
    }
  }

  for (const BudgetFact& budget : facts.budgets) {
    // The budgeted member's own channels extend the chain one hop past the
    // serving node, one sink per subscriber; an unsubscribed member ends
    // the chain at the serving node itself.
    std::vector<ChannelEdge> extensions;
    for (const ChannelFact& channel : facts.channels) {
      if (channel.tagged && channel.server_node == budget.node && channel.member == budget.member) {
        extensions.push_back(ChannelEdge{channel.client_node, channel.hop_latency()});
      }
    }
    for (const std::string& source : sources) {
      std::vector<std::string> path{source};
      enumerate_paths(graph, source, budget.node, path, Duration{0},
                      [&](const std::vector<std::string>& nodes, Duration latency) {
                        const auto emit = [&](std::vector<std::string> chain_path,
                                              Duration chain_latency, const std::string& sink) {
                          ChainBound chain;
                          chain.budget_member = budget.member;
                          chain.source = source;
                          chain.sink = sink;
                          chain.logical_latency = chain_latency;
                          chain.budget = budget.budget;
                          for (const std::string& node : chain_path) {
                            if (const NodeTiming* timing = out.find_node(node)) {
                              chain.critical_path_wcet += timing->critical_path_wcet;
                            }
                          }
                          chain.path = std::move(chain_path);
                          out.chains.push_back(std::move(chain));
                        };
                        if (extensions.empty()) {
                          emit(nodes, latency, budget.node);
                        } else {
                          for (const ChannelEdge& extension : extensions) {
                            std::vector<std::string> extended = nodes;
                            extended.push_back(extension.client);
                            emit(std::move(extended), latency + extension.latency,
                                 extension.client);
                          }
                        }
                      });
    }
  }
  return out;
}

std::string TimingAnalysis::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::string out;
  out += pad + "{\n";
  out += pad + "  \"chains\": [\n";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    const ChainBound& chain = chains[i];
    push_message(out, "%s    {\"budget_member\": \"%s\", \"source\": \"%s\", \"sink\": \"%s\", ",
                 pad.c_str(), chain.budget_member.c_str(), chain.source.c_str(),
                 chain.sink.c_str());
    out += "\"path\": [";
    for (std::size_t k = 0; k < chain.path.size(); ++k) {
      push_message(out, "%s\"%s\"", k == 0 ? "" : ",", chain.path[k].c_str());
    }
    push_message(out,
                 "], \"logical_latency_ns\": %" PRId64 ", \"critical_path_wcet_ns\": %" PRId64
                 ", \"budget_ns\": %" PRId64 "}%s\n",
                 static_cast<std::int64_t>(chain.logical_latency),
                 static_cast<std::int64_t>(chain.critical_path_wcet),
                 static_cast<std::int64_t>(chain.budget), i + 1 < chains.size() ? "," : "");
  }
  out += pad + "  ],\n";
  out += pad + "  \"nodes\": [\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    push_message(out,
                 "%s    {\"node\": \"%s\", \"critical_path_wcet_ns\": %" PRId64
                 ", \"tightest_deadline_ns\": %" PRId64 "}%s\n",
                 pad.c_str(), nodes[i].node.c_str(),
                 static_cast<std::int64_t>(nodes[i].critical_path_wcet),
                 static_cast<std::int64_t>(nodes[i].tightest_deadline),
                 i + 1 < nodes.size() ? "," : "");
  }
  out += pad + "  ]\n";
  out += pad + "}";
  return out;
}

void check_timing(const Facts& facts, const TimingAnalysis& timing,
                  std::vector<Diagnostic>& out) {
  // DEAR-LAT-004: budgets no extracted chain reaches.
  for (const BudgetFact& budget : facts.budgets) {
    bool reached = false;
    for (const ChainBound& chain : timing.chains) {
      if (chain.budget_member == budget.member) {
        reached = true;
        break;
      }
    }
    if (!reached) {
      std::string message;
      push_message(message,
                   "end-to-end budget of %" PRId64
                   " ns is declared on node '%s' but no tagged source->sink chain reaches it",
                   static_cast<std::int64_t>(budget.budget), budget.node.c_str());
      out.push_back(make_diagnostic(Rule::kUnreachableBudgetSink, budget.member, message));
    }
  }

  // DEAR-LAT-001: accumulated logical latency vs declared budget.
  for (const ChainBound& chain : timing.chains) {
    if (chain.logical_latency <= chain.budget) {
      continue;
    }
    std::string message;
    push_message(message,
                 "chain %s accumulates %" PRId64 " ns logical latency, exceeding the %" PRId64
                 " ns end-to-end budget",
                 join_path(chain.path).c_str(), static_cast<std::int64_t>(chain.logical_latency),
                 static_cast<std::int64_t>(chain.budget));
    out.push_back(make_diagnostic(Rule::kChainBudgetExceeded, chain.budget_member, message));
  }

  // DEAR-LAT-002: per chain node (deduplicated, chain order), the critical
  // path must fit inside the tightest sending deadline.
  std::vector<std::string> flagged;
  for (const ChainBound& chain : timing.chains) {
    for (const std::string& node : chain.path) {
      if (std::find(flagged.begin(), flagged.end(), node) != flagged.end()) {
        continue;
      }
      const NodeTiming* entry = timing.find_node(node);
      if (entry == nullptr || entry->tightest_deadline <= 0 ||
          entry->critical_path_wcet <= entry->tightest_deadline) {
        continue;
      }
      flagged.push_back(node);
      std::string message;
      push_message(message,
                   "critical-path WCET %" PRId64 " ns on chain node '%s' exceeds its tightest "
                   "sending deadline %" PRId64 " ns: deadline misses are statically certain",
                   static_cast<std::int64_t>(entry->critical_path_wcet), node.c_str(),
                   static_cast<std::int64_t>(entry->tightest_deadline));
      out.push_back(make_diagnostic(Rule::kChainWcetExceedsDeadline, node, message));
    }
  }
}

}  // namespace dear::analysis
