// Diagnostics for the static determinism verifier.
//
// Every finding carries a stable rule ID (documented in
// docs/static_analysis.md) so CI gates, golden tests and downstream
// tooling can match on identity rather than message text. Severity
// semantics: an `error` finding means the DEAR determinism guarantee does
// not hold for the analyzed configuration — statically, before a single
// event executes; a `warning` flags a likely specification bug that does
// not break determinism; a `note` records a legal-but-noteworthy
// structure.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dear::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

/// The rule catalog. IDs are append-only: new rules get new identifiers,
/// existing identifiers never change meaning.
enum class Rule : std::uint8_t {
  /// DEAR-GRAPH-001: instantaneous causality cycle in the APG.
  kInstantaneousCycle,
  /// DEAR-GRAPH-002: a port with multiple writers that are not totally
  /// ordered by the APG — which writer wins depends on execution order.
  kMultiWriterPort,
  /// DEAR-GRAPH-003: reactions sharing a mutable state cell without an
  /// ordering edge between them.
  kUnorderedSharedState,
  /// DEAR-GRAPH-004: a reaction that no sensor, timer or startup trigger
  /// can ever reach.
  kDeadReaction,
  /// DEAR-GRAPH-005: a multi-writer port whose writers *are* totally
  /// ordered (legal last-write-wins; recorded as a note).
  kOrderedMultiWriterPort,
  /// DEAR-TIME-001: a node whose tightest sending deadline D sits below
  /// the largest modeled execution-time upper bound (WCET) feeding it.
  kDeadlineBelowWcet,
  /// DEAR-TAG-001: a service channel that carries no logical tags, so the
  /// receiver orders messages by physical arrival.
  kUntaggedChannel,
  /// DEAR-ENV-001: scenario service-link latency exceeds the safe-to-
  /// process bound L assumed by the receiving transactors.
  kEnvelopeLatency,
  /// DEAR-ENV-002: scenario drops service messages — the paper's
  /// reliable-delivery assumption is violated.
  kEnvelopeLossyLink,
  /// DEAR-ENV-003: scenario scales deadlines below the values the WCETs
  /// were budgeted against (deadline_scale < 1).
  kEnvelopeDeadlineScale,
  /// DEAR-ENV-004: scenario scales execution times beyond the budgeted
  /// WCETs (exec_time_scale > 1).
  kEnvelopeExecScale,
  /// DEAR-LAT-001: a source→sink chain whose accumulated logical latency
  /// (Σ per-hop D + L + E) exceeds the declared end-to-end budget.
  kChainBudgetExceeded,
  /// DEAR-LAT-002: a chain node whose critical-path WCET exceeds its
  /// tightest sending deadline — deadline misses are statically certain
  /// under the scenario's timing scales.
  kChainWcetExceedsDeadline,
  // DEAR-LAT-003 is retired; its ID stays reserved and is never reused.
  /// DEAR-LAT-004: an end-to-end budget whose sink no tagged source→sink
  /// chain reaches (unreachable sink / dead budget).
  kUnreachableBudgetSink,
  /// DEAR-FT-001: the scenario injects service faults but configures
  /// neither a retry budget nor (implicitly, via the fault model) a
  /// fallback — failures surface as silent losses.
  kFtNoFallback,
  /// DEAR-FT-002: the retry budget's worst-case added latency (all
  /// attempts time out, every backoff waited) exceeds the tightest
  /// declared end-to-end chain budget.
  kFtRetryBudgetOverChain,
};

/// Every rule, in catalog (= declaration) order. dear_lint --list-rules
/// and the docs-catalog test iterate this.
inline constexpr Rule kAllRules[] = {
    Rule::kInstantaneousCycle,    Rule::kMultiWriterPort,
    Rule::kUnorderedSharedState,  Rule::kDeadReaction,
    Rule::kOrderedMultiWriterPort, Rule::kDeadlineBelowWcet,
    Rule::kUntaggedChannel,       Rule::kEnvelopeLatency,
    Rule::kEnvelopeLossyLink,     Rule::kEnvelopeDeadlineScale,
    Rule::kEnvelopeExecScale,     Rule::kChainBudgetExceeded,
    Rule::kChainWcetExceedsDeadline, Rule::kUnreachableBudgetSink,
    Rule::kFtNoFallback,             Rule::kFtRetryBudgetOverChain,
};

[[nodiscard]] std::string_view rule_id(Rule rule) noexcept;
[[nodiscard]] std::string_view rule_summary(Rule rule) noexcept;
[[nodiscard]] Severity rule_severity(Rule rule) noexcept;
[[nodiscard]] std::string_view to_string(Severity severity) noexcept;

struct Diagnostic {
  Rule rule{Rule::kInstantaneousCycle};
  Severity severity{Severity::kError};
  /// What the finding anchors to: a reaction/port fqn, a node name, or a
  /// scenario knob.
  std::string subject;
  std::string message;
};

[[nodiscard]] Diagnostic make_diagnostic(Rule rule, std::string subject, std::string message);

/// Thrown by AppBuilder::validate() when the constructed application
/// contains error-severity findings. Carries the full diagnostic list so
/// callers (and test fixtures) can assert on rule identities.
class AnalysisError : public std::runtime_error {
 public:
  AnalysisError(const std::string& what, std::vector<Diagnostic> diagnostics);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace dear::analysis
