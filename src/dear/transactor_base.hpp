// Common base for the four DEAR transactors.
//
// "DEAR provides four distinct transactors, each implemented as a reactor
// and enabling the composition of reactors through regular AUTOSAR service
// interfaces" (paper §III.B). The base holds the configuration, the
// binding whose timestamp bypass the transactor uses, and the error
// counters that make protocol violations observable — "the reactor
// semantics ... translates any violation of one of the assumptions
// directly into observable errors" (paper §IV.B).
#pragma once

#include <atomic>
#include <cstdint>

#include "ara/com/transport_binding.hpp"
#include "dear/config.hpp"
#include "dear/tag_codec.hpp"
#include "reactor/runtime.hpp"

namespace dear::transact {

class Transactor : public reactor::Reactor {
 public:
  Transactor(reactor::Name name, reactor::Environment& environment,
             ara::com::TransportBinding& binding, TransactorConfig config)
      : Reactor(name, environment), binding_(binding), config_(config) {}

  [[nodiscard]] const TransactorConfig& config() const noexcept { return config_; }
  [[nodiscard]] ara::com::TransportBinding& binding() noexcept { return binding_; }

  /// Messages sent with a tag attached.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return sent_.load(); }
  /// Tagged messages accepted and released into the reactor network.
  [[nodiscard]] std::uint64_t messages_released() const noexcept { return released_.load(); }
  /// Messages whose safe-to-process tag was already in the logical past
  /// (the L/E bound assumption was violated).
  [[nodiscard]] std::uint64_t tardy_messages() const noexcept { return tardy_.load(); }
  /// Messages arriving without a tag (counted under both policies).
  [[nodiscard]] std::uint64_t untagged_messages() const noexcept { return untagged_.load(); }
  /// Untagged or tardy messages dropped under UntaggedPolicy::kFail.
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept { return dropped_.load(); }
  /// Sending-reaction deadline violations (message was not sent).
  [[nodiscard]] std::uint64_t deadline_violations() const noexcept {
    return deadline_violations_.load();
  }
  /// Remote/communication errors observed on method futures.
  [[nodiscard]] std::uint64_t remote_errors() const noexcept { return remote_errors_.load(); }

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return tardy_messages() + dropped_messages() + deadline_violations() + remote_errors();
  }

 protected:
  /// Computes the release tag for a received wire tag and schedules the
  /// value on `action` following the safe-to-process rule. Shared by all
  /// receiving transactors (Figure 3, steps 10/21).
  template <typename T>
  void release_received(reactor::PhysicalAction<T>& action, const T& value) {
    const auto wire = binding_.collect_received_tag();
    if (!wire.has_value()) {
      untagged_.fetch_add(1, std::memory_order_relaxed);
      if (config_.untagged == UntaggedPolicy::kFail) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      // Backward compatibility: tag with physical reception time, like a
      // sporadic sensor input.
      action.schedule(value);
      released_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    reactor::Tag release = from_wire(*wire);
    release.time += config_.release_offset();
    if (action.schedule_at(release, value)) {
      released_.fetch_add(1, std::memory_order_relaxed);
    } else {
      tardy_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void count_sent() noexcept { sent_.fetch_add(1, std::memory_order_relaxed); }
  void count_deadline_violation() noexcept {
    deadline_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_remote_error() noexcept { remote_errors_.fetch_add(1, std::memory_order_relaxed); }

 private:
  ara::com::TransportBinding& binding_;
  TransactorConfig config_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> tardy_{0};
  std::atomic<std::uint64_t> untagged_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> deadline_violations_{0};
  std::atomic<std::uint64_t> remote_errors_{0};
};

}  // namespace dear::transact
