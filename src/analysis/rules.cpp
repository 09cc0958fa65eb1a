#include "analysis/rules.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace dear::analysis {

namespace {

/// Reachability over the APG, walked up the depends_on (predecessor)
/// lists: row b of the flat n×n table marks every reaction that precedes
/// b transitively. ordered(a, b) holds when either precedes the other —
/// i.e. the runtime is guaranteed to run the two in a fixed order at any
/// shared tag.
class Ordering {
 public:
  explicit Ordering(const Facts& facts) : n_(facts.reactions.size()), precedes_(n_ * n_, 0) {
    std::vector<std::uint32_t> worklist;
    for (std::size_t start = 0; start < n_; ++start) {
      char* row = &precedes_[start * n_];
      worklist.assign(1, static_cast<std::uint32_t>(start));
      while (!worklist.empty()) {
        const std::uint32_t v = worklist.back();
        worklist.pop_back();
        for (const std::uint32_t w : facts.list(facts.reactions[v].depends_on)) {
          if (row[w] == 0) {
            row[w] = 1;
            worklist.push_back(w);
          }
        }
      }
    }
  }

  [[nodiscard]] bool ordered(std::size_t a, std::size_t b) const {
    return precedes_[a * n_ + b] != 0 || precedes_[b * n_ + a] != 0;
  }

 private:
  std::size_t n_;
  std::vector<char> precedes_;
};

template <typename Indices>
[[nodiscard]] std::string join_fqns(const Facts& facts, const Indices& members) {
  std::string out;
  for (const std::size_t member : members) {
    if (!out.empty()) {
      out += ", ";
    }
    out += facts.text(facts.reactions[member].fqn);
  }
  return out;
}

[[nodiscard]] std::string fqn_of(const Facts& facts, std::size_t reaction) {
  return std::string(facts.text(facts.reactions[reaction].fqn));
}

void check_cycles(const Facts& facts, std::vector<Diagnostic>& out) {
  for (const std::vector<std::uint32_t>& cycle : facts.cycles) {
    out.push_back(make_diagnostic(
        Rule::kInstantaneousCycle, fqn_of(facts, cycle.front()),
        "instantaneous causality cycle through: " + join_fqns(facts, cycle)));
  }
}

void check_multi_writer(const Facts& facts, const Ordering& ordering,
                        std::vector<Diagnostic>& out) {
  for (const PortFact& port : facts.ports) {
    const std::span<const std::uint32_t> writers = facts.list(port.writers);
    if (writers.size() < 2) {
      continue;
    }
    bool unordered = false;
    std::pair<std::size_t, std::size_t> witness{0, 0};
    for (std::size_t a = 0; a < writers.size() && !unordered; ++a) {
      for (std::size_t b = a + 1; b < writers.size(); ++b) {
        if (!ordering.ordered(writers[a], writers[b])) {
          unordered = true;
          witness = {writers[a], writers[b]};
          break;
        }
      }
    }
    const std::string subject(facts.text(port.fqn));
    if (unordered) {
      out.push_back(make_diagnostic(
          Rule::kMultiWriterPort, subject,
          "port has unordered writers " + fqn_of(facts, witness.first) + " and " +
              fqn_of(facts, witness.second) + ": the surviving value depends on " +
              "execution order"));
    } else {
      out.push_back(make_diagnostic(
          Rule::kOrderedMultiWriterPort, subject,
          "port written by " + join_fqns(facts, writers) +
              " (totally ordered: last write wins deterministically)"));
    }
  }
}

void check_shared_state(const Facts& facts, const Ordering& ordering,
                        std::vector<Diagnostic>& out) {
  for (const StateFact& cell : facts.states()) {
    if (cell.writers.empty()) {
      continue;
    }
    // Every accessor pair with at least one writer needs an ordering edge.
    std::vector<std::uint32_t> accessors = cell.writers;
    accessors.insert(accessors.end(), cell.readers.begin(), cell.readers.end());
    std::sort(accessors.begin(), accessors.end());
    accessors.erase(std::unique(accessors.begin(), accessors.end()), accessors.end());
    for (std::size_t a = 0; a < accessors.size(); ++a) {
      bool reported = false;
      for (std::size_t b = a + 1; b < accessors.size(); ++b) {
        const bool involves_writer =
            std::find(cell.writers.begin(), cell.writers.end(), accessors[a]) !=
                cell.writers.end() ||
            std::find(cell.writers.begin(), cell.writers.end(), accessors[b]) !=
                cell.writers.end();
        if (involves_writer && !ordering.ordered(accessors[a], accessors[b])) {
          out.push_back(make_diagnostic(
              Rule::kUnorderedSharedState, cell.name,
              "state '" + cell.name + "' is accessed by " + fqn_of(facts, accessors[a]) +
                  " and " + fqn_of(facts, accessors[b]) +
                  " (at least one a writer) with no ordering edge between them"));
          reported = true;
          break;
        }
      }
      if (reported) {
        break;  // one witness pair per state cell keeps reports readable
      }
    }
  }
}

void check_dead_reactions(const Facts& facts, std::vector<Diagnostic>& out) {
  // Fixpoint: a reaction is reachable when an action triggers it (timer,
  // startup/shutdown, physical action) or when any triggering port has a
  // reachable writer.
  const std::size_t n = facts.reactions.size();
  std::vector<bool> reachable(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    reachable[i] = facts.reactions[i].entry;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (reachable[i]) {
        continue;
      }
      for (const std::uint32_t port : facts.list(facts.reactions[i].triggers)) {
        for (const std::uint32_t writer : facts.list(facts.ports[port].writers)) {
          if (reachable[writer]) {
            reachable[i] = true;
            changed = true;
            break;
          }
        }
        if (reachable[i]) {
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!reachable[i]) {
      out.push_back(make_diagnostic(
          Rule::kDeadReaction, fqn_of(facts, i),
          "no timer, startup trigger or sensor action can ever trigger this reaction"));
    }
  }
}

void check_deadline_budgets(const Facts& facts, std::vector<Diagnostic>& out) {
  // Per node: the tightest sending deadline must cover the largest
  // modeled execution-time upper bound on that node. Conservative (max,
  // not chain sum): fires only on certain violations, so clean configs
  // never see a false positive.
  std::vector<std::string_view> nodes;
  for (const ReactionFact& reaction : facts.reactions) {
    const std::string_view node = facts.text(reaction.node);
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  }
  for (const std::string_view node : nodes) {
    Duration deadline_min = 0;
    Duration wcet_max = 0;
    for (const ReactionFact& reaction : facts.reactions) {
      if (facts.text(reaction.node) != node) {
        continue;
      }
      if (reaction.deadline > 0 && (deadline_min == 0 || reaction.deadline < deadline_min)) {
        deadline_min = reaction.deadline;
      }
      wcet_max = std::max(wcet_max, reaction.wcet);
    }
    if (deadline_min > 0 && wcet_max > 0 && deadline_min < wcet_max) {
      char buffer[192];
      std::snprintf(buffer, sizeof(buffer),
                    "tightest sending deadline %" PRId64 " ns sits below the largest modeled "
                    "WCET %" PRId64 " ns on this node: deadline misses are guaranteed reachable",
                    static_cast<std::int64_t>(deadline_min),
                    static_cast<std::int64_t>(wcet_max));
      out.push_back(make_diagnostic(Rule::kDeadlineBelowWcet, std::string(node), buffer));
    }
  }
}

void check_channels(const Facts& facts, std::vector<Diagnostic>& out) {
  for (const ChannelFact& channel : facts.channels) {
    if (!channel.tagged) {
      out.push_back(make_diagnostic(
          Rule::kUntaggedChannel, channel.member,
          "channel " + channel.server_node + " -> " + channel.client_node +
              " carries no logical tags: the receiver processes messages in physical " +
              "arrival order"));
    }
  }
}

}  // namespace

std::vector<Diagnostic> check_structure(const Facts& facts) {
  std::vector<Diagnostic> out;
  const Ordering ordering(facts);
  check_cycles(facts, out);
  check_multi_writer(facts, ordering, out);
  check_shared_state(facts, ordering, out);
  check_dead_reactions(facts, out);
  check_deadline_budgets(facts, out);
  check_channels(facts, out);
  return out;
}

std::vector<Diagnostic> check_envelope(const scenario::ScenarioSpec& spec, const Facts& facts) {
  std::vector<Diagnostic> out;

  // The latency bound the deployment actually assumes: the tightest L of
  // any tagged channel, falling back to the repo-wide default bound.
  Duration bound = 0;
  for (const ChannelFact& channel : facts.channels) {
    if (channel.tagged && channel.latency_bound > 0 &&
        (bound == 0 || channel.latency_bound < bound)) {
      bound = channel.latency_bound;
    }
  }
  if (bound == 0) {
    bound = scenario::kSvcLatencyBound;
  }
  if (spec.svc_latency_max > bound) {
    char buffer[192];
    std::snprintf(buffer, sizeof(buffer),
                  "service-link latency max %" PRId64 " ns exceeds the safe-to-process bound "
                  "L = %" PRId64 " ns: messages may arrive after their release tag passed",
                  static_cast<std::int64_t>(spec.svc_latency_max),
                  static_cast<std::int64_t>(bound));
    out.push_back(make_diagnostic(Rule::kEnvelopeLatency, "svc_latency_max", buffer));
  }
  if (spec.net_drop_probability > 0.0) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "drop probability %.3f violates the reliable-delivery assumption",
                  spec.net_drop_probability);
    out.push_back(make_diagnostic(Rule::kEnvelopeLossyLink, "net_drop_probability", buffer));
  }
  if (spec.deadline_scale < 1.0) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "deadline_scale %.2f pushes deadlines below the budgeted WCETs",
                  spec.deadline_scale);
    out.push_back(make_diagnostic(Rule::kEnvelopeDeadlineScale, "deadline_scale", buffer));
  }
  if (spec.exec_time_scale > 1.0) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "exec_time_scale %.2f pushes execution times beyond the budgeted WCETs",
                  spec.exec_time_scale);
    out.push_back(make_diagnostic(Rule::kEnvelopeExecScale, "exec_time_scale", buffer));
  }

  // --- fault-tolerance configuration (src/ft/) -------------------------------
  // Both rules are warnings by design: an injected crash is still
  // bit-reproducible, so neither finding breaks the determinism claim.
  if (spec.service_faults.any() && !spec.retry.enabled()) {
    out.push_back(make_diagnostic(
        Rule::kFtNoFallback, "service_faults",
        "scenario injects service faults (crash/error/omission/churn) but no retry "
        "budget is configured: affected calls and samples fail silently"));
  }
  if (spec.retry.enabled()) {
    Duration tightest = 0;
    std::string tightest_member;
    for (const BudgetFact& budget : facts.budgets) {
      if (budget.budget > 0 && (tightest == 0 || budget.budget < tightest)) {
        tightest = budget.budget;
        tightest_member = budget.member;
      }
    }
    const Duration worst = spec.retry.worst_case_latency();
    if (tightest > 0 && worst > tightest) {
      char buffer[224];
      std::snprintf(buffer, sizeof(buffer),
                    "retry worst case %" PRId64 " ns (%u attempts x %" PRId64
                    " ns timeout + linear backoff) exceeds the tightest end-to-end budget "
                    "%" PRId64 " ns on %s",
                    static_cast<std::int64_t>(worst), spec.retry.max_attempts,
                    static_cast<std::int64_t>(spec.retry.timeout),
                    static_cast<std::int64_t>(tightest), tightest_member.c_str());
      out.push_back(make_diagnostic(Rule::kFtRetryBudgetOverChain, "retry", buffer));
    }
  }
  return out;
}

bool has_errors(const std::vector<Diagnostic>& diagnostics) noexcept {
  return count_severity(diagnostics, Severity::kError) > 0;
}

bool has_gating_errors(const std::vector<Diagnostic>& diagnostics, Gate gate) noexcept {
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity != Severity::kError) {
      continue;
    }
    if (gate == Gate::kStructural && (diagnostic.rule == Rule::kDeadlineBelowWcet ||
                                      diagnostic.rule == Rule::kChainWcetExceedsDeadline)) {
      continue;
    }
    return true;
  }
  return false;
}

std::size_t count_severity(const std::vector<Diagnostic>& diagnostics,
                           Severity severity) noexcept {
  std::size_t count = 0;
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.severity == severity) {
      ++count;
    }
  }
  return count;
}

}  // namespace dear::analysis
