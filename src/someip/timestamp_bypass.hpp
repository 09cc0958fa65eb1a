// Timestamp bypass (paper §III.B, Figure 3).
//
// ara::com method/event signatures cannot carry logical tags — the standard
// fixes those interfaces. DEAR therefore tunnels the tag *around* the
// ara::com layer: a transactor deposits the outgoing tag into the bypass
// immediately before invoking the proxy/skeleton call, and the modified
// SOME/IP binding collects it when the call reaches the wire (steps 2/5 and
// 13/16 in Figure 3). On the receive path the binding deposits the tag
// before invoking the handler, and the transactor collects it (steps 7/10
// and 18/21).
//
// Deposit/collect pairs rely on the synchronous call nesting between
// transactor and binding, exactly like the paper's implementation; the slot
// is mutex-protected because the real-threads runtime may operate bindings
// from several threads. A binding on a DES executor claims its bypasses as
// single-owner, which drops that locking.
#pragma once

#include <optional>

#include "common/owner_mutex.hpp"
#include "someip/message.hpp"

namespace dear::someip {

class TimestampBypass {
 public:
  /// One thread will use this slot for its whole life (legal only before
  /// first use): deposit/collect stop locking.
  void claim_single_owner() noexcept { mutex_.claim_single_owner(); }
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

  /// Places a tag in the slot. Overwrites any previous tag (a leftover tag
  /// indicates a protocol misuse; collect_stale() exposes it for tests).
  void deposit(WireTag tag);

  /// Removes and returns the slot content.
  [[nodiscard]] std::optional<WireTag> collect();

  /// Returns the slot content without disarming it (retry bookkeeping:
  /// a proxy wrapper records the armed tag so a retried attempt can
  /// re-arm it with a logical backoff).
  [[nodiscard]] std::optional<WireTag> peek() const;

  /// True when a tag is waiting.
  [[nodiscard]] bool armed() const;

  /// Number of deposits that overwrote an uncollected tag.
  [[nodiscard]] std::uint64_t overwrites() const;

 private:
  mutable common::OwnerMutex mutex_;
  std::optional<WireTag> slot_;
  std::uint64_t overwrites_{0};
};

}  // namespace dear::someip
