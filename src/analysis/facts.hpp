// The fact table produced by the static verifier's extraction pass.
//
// Facts are a workload-neutral intermediate representation: the reactor
// extraction (extract.hpp) fills it from real DependencyGraphs, the
// AppBuilder extraction (app_facts.hpp) adds the cross-binding service
// channels, and the stock-APD model (workload_models.cpp) declares the
// same structures for the non-reactor baseline. Rules (rules.hpp) only
// ever see this table, so every workload is judged by the same criteria.
//
// Serialization is canonical: to_json() emits the tables in extraction
// order (node declaration order, then reactor registration order), so the
// digest over it is stable across platforms and runs — the level table
// digest is one of the repo's golden-test anchors.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace dear::analysis {

/// A name in Facts::text_pool: `size` bytes from `offset`.
struct Name {
  std::uint32_t offset{0};
  std::uint32_t size{0};
};

/// A list of indices in Facts::index_pool.
struct IndexList {
  std::uint32_t offset{0};
  std::uint32_t size{0};
};

/// A list of names in Facts::name_pool.
struct NameList {
  std::uint32_t offset{0};
  std::uint32_t size{0};
};

/// One reaction (or, for the stock-APD model, one callback/handler
/// context). Port/reaction references are indices into Facts::ports resp.
/// Facts::reactions; names and lists live in the Facts' pools.
struct ReactionFact {
  Name node;
  Name fqn;
  /// APG level; -1 when the reaction sits on an instantaneous cycle (or
  /// the workload has no precedence graph at all).
  int level{-1};
  /// Triggered by an action (timer, startup, physical/sensor action):
  /// an entry point of the reachability analysis.
  bool entry{false};
  Duration deadline{0};
  /// Modeled execution-time upper bound; 0 when the reaction carries no
  /// cost model.
  Duration wcet{0};
  IndexList triggers;         // port indices
  IndexList reads;            // port indices (non-triggering)
  IndexList effects;          // port indices
  NameList trigger_actions;   // action names
  IndexList depends_on;       // APG predecessors (reaction indices, sorted)
  NameList state_reads;
  NameList state_writes;
};

/// One source port (binding chains are resolved to their source) or, for
/// the stock-APD model, one one-slot input buffer.
struct PortFact {
  Name fqn;
  Name node;
  IndexList writers;  // reaction indices
  IndexList readers;  // reaction indices (triggered + reads)
};

/// One cross-binding service connection (server transactor → client
/// transactor), carrying the timing assumptions both sides were
/// configured with.
struct ChannelFact {
  std::string member;  // "<Interface>.<member>"
  std::string server_node;
  std::string client_node;
  /// Safe-to-process latency bound L assumed by the receiving transactor.
  Duration latency_bound{0};
  /// Sending deadline D folded into the wire tag by the server side.
  Duration deadline{0};
  /// Clock synchronization error bound E assumed by the receiving
  /// transactor (0 when both SWCs share a platform).
  Duration clock_error{0};
  /// False when the channel carries no logical tags (stock APD).
  bool tagged{true};

  /// Logical latency one hop adds to a chain: the sender folds D into the
  /// wire tag and the receiver releases at wire + L + E (paper §III.B).
  [[nodiscard]] Duration hop_latency() const noexcept {
    return deadline + latency_bound + clock_error;
  }
};

/// One declared end-to-end latency budget (ara::meta::EndToEndBudget on a
/// served descriptor): samples emitted on `member` must arrive within
/// `budget` of the chain's sensor tag.
struct BudgetFact {
  std::string member;  // "<Interface>.<member>"
  std::string node;    // serving node
  Duration budget{0};
};

/// Derived view: one named mutable state cell and its accessors.
struct StateFact {
  std::string name;
  std::vector<std::uint32_t> readers;
  std::vector<std::uint32_t> writers;
};

/// One node's reactions grouped by level: levels[l] lists the fqns of the
/// node's reactions at level l, in extraction (= graph) order.
struct NodeLevels {
  std::string node;
  std::vector<std::vector<std::string>> levels;
};

/// The fact table. The reaction and port rows are fixed-size; their names
/// and index/name lists are spans into three flat pools the table owns, so
/// a table costs a handful of allocations however large the program is.
struct Facts {
  std::string workload;
  std::vector<ReactionFact> reactions;
  std::vector<PortFact> ports;
  std::vector<ChannelFact> channels;
  std::vector<BudgetFact> budgets;
  /// Nontrivial strongly-connected components of the reaction graph
  /// (instantaneous cycles), as sorted reaction-index lists.
  std::vector<std::vector<std::uint32_t>> cycles;
  /// Max level count over all nodes (levels are per-node).
  int level_count{0};

  // --- flat storage behind the Name / IndexList / NameList handles ----------
  std::string text_pool;
  std::vector<std::uint32_t> index_pool;
  std::vector<Name> name_pool;

  [[nodiscard]] std::string_view text(Name name) const noexcept {
    return std::string_view(text_pool).substr(name.offset, name.size);
  }
  [[nodiscard]] std::span<const std::uint32_t> list(IndexList list) const noexcept {
    return std::span<const std::uint32_t>(index_pool).subspan(list.offset, list.size);
  }
  [[nodiscard]] std::span<const Name> names(NameList list) const noexcept {
    return std::span<const Name>(name_pool).subspan(list.offset, list.size);
  }

  /// Appends to the pools and returns the handle.
  Name add_text(std::string_view text);
  IndexList add_list(std::span<const std::uint32_t> indices);
  IndexList add_list(std::initializer_list<std::uint32_t> indices) {
    return add_list(std::span<const std::uint32_t>(indices.begin(), indices.size()));
  }
  NameList add_names(std::span<const std::string> names);

  /// Collects the state-cell table from the reactions' declarations.
  [[nodiscard]] std::vector<StateFact> states() const;

  /// Per node, in first-appearance order, the reactions grouped by level.
  /// Reactions at level -1 are left out, so a node whose reactions all
  /// sit on or behind a cycle has no levels.
  [[nodiscard]] std::vector<NodeLevels> levels_by_node() const;

  /// levels_by_node() as text: one line "node/L<level>: fqn fqn ..." per
  /// nonempty level.
  [[nodiscard]] std::string level_table() const;

  /// Canonical JSON serialization of every table (deterministic: pure
  /// function of the extraction order).
  [[nodiscard]] std::string to_json(int indent = 0) const;

  /// FNV-1a digest over to_json(): the golden-test anchor for "the
  /// analyzer still sees the same program".
  [[nodiscard]] std::uint64_t digest() const;
};

/// FNV-1a 64-bit over a byte string (shared by Facts::digest and tests).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

}  // namespace dear::analysis
