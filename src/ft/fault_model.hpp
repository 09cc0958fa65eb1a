// Deterministic service-fault injection and tolerance budgets.
//
// The scenario engine can already perturb the *environment* (latency,
// drops, drift, sensor faults); this layer extends the fault model to the
// *services* themselves: a victim node crashing at a logical tag and
// restarting later, per-call error/omission faults, and subscription
// churn. Every decision here is a pure function of logical inputs — the
// wire tag of the affected message or the (client, session) identity of
// the affected call, hashed with the campaign-wide fault seed — never of
// physical time, thread interleaving or transport. That is what makes an
// injected crash reproducible bit-for-bit across platform seeds,
// SOME/IP vs local transport, and any worker count.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/endpoint.hpp"
#include "someip/types.hpp"

namespace dear::ft {

/// Scenario-level service fault knobs (scenario/spec.hpp carries one).
/// Crash and restart are expressed in *wire-tag time*: while the victim
/// is down, every tagged message entering or leaving its binding whose
/// wire tag falls inside [crash_at, crash_at + restart_after) is dropped.
/// Untagged control traffic (subscribes, legacy proxies) passes — a warm
/// restart keeps subscriber state, mirroring a crashed-and-supervised
/// process whose peers keep their session state.
struct ServiceFaultModel {
  /// Wire-tag time at which the victim service's node goes down, measured
  /// from the nominal release of sensor sample 0 (0 = never crashes). The
  /// pipelines anchor the window to their sensor capture grid — the
  /// platform clock offset shifts every sensor tag by up to a full period,
  /// and an absolute window would let it shift window membership (and the
  /// digest) with it. Pick boundaries strictly *between* the chain's
  /// wire-tag offsets mod period (the presets use +period/2): sensor tags
  /// carry sub-millisecond capture/network jitter, and a boundary that
  /// razor-cuts a jitter cloud makes membership of that one sample
  /// seed-dependent.
  Duration crash_at{0};
  /// Downtime before the warm restart (0 with crash_at set = the victim
  /// never comes back).
  Duration restart_after{0};
  /// Per-call probability that the server answers with an error response
  /// instead of invoking the handler.
  double call_error_probability{0.0};
  /// Per-call probability that the server silently swallows the request
  /// (the client's timeout is the only signal).
  double call_omission_probability{0.0};
  /// Period of subscription churn (repeated unsubscribe/resubscribe of a
  /// pipeline event subscription); 0 = no churn. Churn windows are
  /// physical, so churn scenarios leave the digest-invariance groups —
  /// the checkable claim is observable-error accounting, not digests.
  Duration churn_period{0};

  [[nodiscard]] bool any() const noexcept {
    return crash_at > 0 || call_error_probability > 0.0 || call_omission_probability > 0.0 ||
           churn_period > 0;
  }

  bool operator==(const ServiceFaultModel&) const = default;
};

/// Logical-time retry budget applied to proxy method calls (and field
/// get/set, which are methods on the wire). Retries re-arm the original
/// wire tag advanced by a deterministic linear backoff, so a retried call
/// is logically later but still fully reproducible. Keeping
/// backoff_base >= timeout guarantees the re-armed tag never falls behind
/// physical send time (retries stay non-tardy).
struct RetryBudget {
  /// Total attempts (1 = single try with timeout, 0 = retry disabled —
  /// calls behave exactly as before this subsystem existed).
  std::uint32_t max_attempts{0};
  /// Logical backoff added per retry: attempt k carries the armed wire
  /// tag advanced by (k - 1) * backoff_base.
  Duration backoff_base{0};
  /// Per-attempt timeout; expiry synthesizes a kTimeout error response.
  Duration timeout{0};

  [[nodiscard]] bool enabled() const noexcept { return max_attempts > 0; }

  /// Worst case added by the budget before a call finally fails: every
  /// attempt times out and every retry waits its backoff. Checked by
  /// DEAR-FT-002 against the chain's end-to-end budget.
  [[nodiscard]] Duration worst_case_latency() const noexcept {
    if (!enabled()) {
      return 0;
    }
    const auto attempts = static_cast<Duration>(max_attempts);
    return attempts * timeout + (attempts - 1) * attempts / 2 * backoff_base;
  }

  bool operator==(const RetryBudget&) const = default;
};

/// Fault-tolerance accounting of one run: the FT columns of every
/// pipeline result and scenario row. All zero when the scenario injects
/// no service faults.
struct Counters {
  /// Tagged messages dropped at the victim's binding inside the down window.
  std::uint64_t crash_drops{0};
  /// Per-call error and omission faults injected by the plan.
  std::uint64_t call_faults{0};
  /// Method calls re-issued by the retry budget.
  std::uint64_t retries{0};
  /// Sink ticks served by the app's fallback while its upstream was dead.
  std::uint64_t degraded_ticks{0};
  /// Supervisor transitions into the dead state.
  std::uint64_t failovers{0};
};

/// The compiled per-run injection plan, shared (read-only) by every
/// transport binding of a pipeline. Bindings consult it on their send and
/// receive paths; the counters are the only mutable state and exist for
/// reporting, not for decisions.
class FaultPlan {
 public:
  /// Endpoint of the victim node; a binding whose own endpoint matches is
  /// "crashed" while the wire tag is inside the down window.
  net::Endpoint victim{};
  /// Down window in wire-tag time: [down_from, down_until). down_from 0
  /// means no crash; down_until 0 with down_from set means forever.
  Duration down_from{0};
  Duration down_until{0};
  double call_error_probability{0.0};
  double call_omission_probability{0.0};
  /// Campaign-wide fault seed (scenario::derive_seed(seed, 0, "fault")).
  std::uint64_t fault_seed{1};

  [[nodiscard]] bool crashes(net::Endpoint self) const noexcept {
    return down_from > 0 && self == victim;
  }

  /// True when a wire tag timestamped `time` falls inside the down window.
  [[nodiscard]] bool down_at(Duration time) const noexcept {
    if (down_from <= 0 || time < down_from) {
      return false;
    }
    return down_until <= 0 || time < down_until;
  }

  enum class CallFault : std::uint8_t { kNone, kOmission, kError };

  /// Per-call fault die: a stateless hash of (fault_seed, client,
  /// session). Sessions are allocated in logical call order, so the
  /// outcome sequence is identical across transports and worker counts.
  [[nodiscard]] CallFault call_fault(someip::ClientId client,
                                     someip::SessionId session) const noexcept {
    if (call_error_probability <= 0.0 && call_omission_probability <= 0.0) {
      return CallFault::kNone;
    }
    std::uint64_t state = fault_seed ^ (static_cast<std::uint64_t>(client) << 32U) ^ session;
    const double u = static_cast<double>(common::splitmix64(state) >> 11U) * 0x1.0p-53;
    if (u < call_omission_probability) {
      call_omissions.fetch_add(1, std::memory_order_relaxed);
      return CallFault::kOmission;
    }
    if (u < call_omission_probability + call_error_probability) {
      call_errors.fetch_add(1, std::memory_order_relaxed);
      return CallFault::kError;
    }
    return CallFault::kNone;
  }

  /// Reporting counters (atomic only because RT deployments may touch a
  /// binding from several threads; inside one DES scenario all traffic is
  /// single-threaded).
  mutable std::atomic<std::uint64_t> crash_drops{0};
  mutable std::atomic<std::uint64_t> call_errors{0};
  mutable std::atomic<std::uint64_t> call_omissions{0};
};

}  // namespace dear::ft
