#include "analysis/diagnostics.hpp"

namespace dear::analysis {

std::string_view rule_id(Rule rule) noexcept {
  switch (rule) {
    case Rule::kInstantaneousCycle:
      return "DEAR-GRAPH-001";
    case Rule::kMultiWriterPort:
      return "DEAR-GRAPH-002";
    case Rule::kUnorderedSharedState:
      return "DEAR-GRAPH-003";
    case Rule::kDeadReaction:
      return "DEAR-GRAPH-004";
    case Rule::kOrderedMultiWriterPort:
      return "DEAR-GRAPH-005";
    case Rule::kDeadlineBelowWcet:
      return "DEAR-TIME-001";
    case Rule::kUntaggedChannel:
      return "DEAR-TAG-001";
    case Rule::kEnvelopeLatency:
      return "DEAR-ENV-001";
    case Rule::kEnvelopeLossyLink:
      return "DEAR-ENV-002";
    case Rule::kEnvelopeDeadlineScale:
      return "DEAR-ENV-003";
    case Rule::kEnvelopeExecScale:
      return "DEAR-ENV-004";
    case Rule::kChainBudgetExceeded:
      return "DEAR-LAT-001";
    case Rule::kChainWcetExceedsDeadline:
      return "DEAR-LAT-002";
    case Rule::kUnreachableBudgetSink:
      return "DEAR-LAT-004";
    case Rule::kFtNoFallback:
      return "DEAR-FT-001";
    case Rule::kFtRetryBudgetOverChain:
      return "DEAR-FT-002";
  }
  return "DEAR-UNKNOWN";
}

std::string_view rule_summary(Rule rule) noexcept {
  switch (rule) {
    case Rule::kInstantaneousCycle:
      return "instantaneous causality cycle in the precedence graph";
    case Rule::kMultiWriterPort:
      return "port written by multiple unordered reactions";
    case Rule::kUnorderedSharedState:
      return "mutable state shared by reactions without an ordering edge";
    case Rule::kDeadReaction:
      return "reaction unreachable from any timer, startup or sensor trigger";
    case Rule::kOrderedMultiWriterPort:
      return "port with multiple totally ordered writers (last write wins)";
    case Rule::kDeadlineBelowWcet:
      return "sending deadline below the modeled worst-case execution time";
    case Rule::kUntaggedChannel:
      return "service channel carries no logical tags";
    case Rule::kEnvelopeLatency:
      return "service-link latency exceeds the safe-to-process bound L";
    case Rule::kEnvelopeLossyLink:
      return "lossy service link violates the reliable-delivery assumption";
    case Rule::kEnvelopeDeadlineScale:
      return "deadlines scaled below the budgeted WCETs";
    case Rule::kEnvelopeExecScale:
      return "execution times scaled beyond the budgeted WCETs";
    case Rule::kChainBudgetExceeded:
      return "chain logical latency exceeds the declared end-to-end budget";
    case Rule::kChainWcetExceedsDeadline:
      return "critical-path WCET exceeds the tightest deadline on the chain";
    case Rule::kUnreachableBudgetSink:
      return "end-to-end budget whose sink no tagged chain reaches";
    case Rule::kFtNoFallback:
      return "service faults injected without retry budget or fallback";
    case Rule::kFtRetryBudgetOverChain:
      return "retry budget worst case exceeds the end-to-end chain budget";
  }
  return "unknown rule";
}

Severity rule_severity(Rule rule) noexcept {
  switch (rule) {
    case Rule::kDeadReaction:
    case Rule::kChainBudgetExceeded:
    case Rule::kUnreachableBudgetSink:
    // The FT rules flag tolerance-configuration smells, not determinism
    // violations: an injected crash is still bit-reproducible, so these
    // must stay warnings (the severity⟺expect_deterministic oracle).
    case Rule::kFtNoFallback:
    case Rule::kFtRetryBudgetOverChain:
      return Severity::kWarning;
    case Rule::kOrderedMultiWriterPort:
      return Severity::kNote;
    default:
      return Severity::kError;
  }
}

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

Diagnostic make_diagnostic(Rule rule, std::string subject, std::string message) {
  return Diagnostic{rule, rule_severity(rule), std::move(subject), std::move(message)};
}

AnalysisError::AnalysisError(const std::string& what, std::vector<Diagnostic> diagnostics)
    : std::runtime_error(what), diagnostics_(std::move(diagnostics)) {}

}  // namespace dear::analysis
