// Transactor configuration (paper §III).
#pragma once

#include "common/time.hpp"

namespace dear::transact {

/// What to do with messages arriving without an attached tag.
///
/// "The default behavior of our transactors is to fail when receiving
/// messages without an associated timestamp, but they can also be
/// configured to tag received messages with the physical time at which
/// they are received" (paper §III.B).
enum class UntaggedPolicy : std::uint8_t {
  kFail,
  kPhysicalTime,
};

/// The paper's worst-case network latency bound L (§IV.B: 5 ms): every
/// transactor's default, and the service-link latency the scenario
/// envelope tolerates (scenario::kSvcLatencyBound).
inline constexpr Duration kLatencyBound = 5 * kMillisecond;

struct TransactorConfig {
  /// Deadline D on the transactor's sending reaction: the bound on how far
  /// logical time may lag physical time when the message leaves. The wire
  /// tag is t + D.
  Duration deadline{5 * kMillisecond};
  /// Worst-case network latency L assumed by safe-to-process analysis.
  Duration latency_bound{kLatencyBound};
  /// Maximum clock synchronization error E between the communicating
  /// platforms (0 when both SWCs share a platform, paper §IV.B).
  Duration clock_error_bound{0};
  UntaggedPolicy untagged{UntaggedPolicy::kFail};

  /// The safe-to-process offset added to a received wire tag: a message
  /// tagged t may be released into the receiving reactor network at
  /// t + L + E (the sender already folded its D into the wire tag).
  [[nodiscard]] Duration release_offset() const noexcept {
    return latency_bound + clock_error_bound;
  }
};

}  // namespace dear::transact
