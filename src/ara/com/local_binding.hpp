// Zero-copy intra-process backend of the binding engine.
//
// For SWCs deployed into the same OS process there is no reason to pay for
// SOME/IP serialization and a (simulated or real) network hop: LocalBinding
// moves the someip::Message structure itself — payload vector and all —
// through a lock-free MPSC queue into the destination binding. Logical
// tags travel in-band on the message (Message::tag), so the DEAR bypass
// contract behaves exactly as over the wire, minus the 12-byte trailer
// codec. Everything else — sessions, timeouts, tables, fan-out, fault
// checks, counters — is the shared engine (transport_binding.hpp); this
// class adds only the hand-off, the inbox drain and direct subscription
// at the peer (no control protocol).
//
// Routing is per-process: a LocalHub maps endpoints to bindings, playing
// the role the datagram network plays for the SOME/IP backend. Endpoint
// values are shared with service discovery, so a service can be offered at
// the same endpoint whether it is reached locally or over the network.
//
// Delivery is synchronous on the sender's thread: enqueue, then drain the
// destination's inbox. The drain is serialized per binding (same guarantee
// as the SOME/IP receive path, which makes the tag deposit→handler pairing
// race-free). A message sent from within a handler running on the same
// thread is queued and processed by the active drain loop instead of
// recursing, so request→response→request chains cannot deadlock. On a DES
// executor the binding is single-owner; the LocalHub and the inbox stay
// thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "ara/com/transport_binding.hpp"
#include "common/mpsc_queue.hpp"

namespace dear::ara::com {

class LocalBinding;

/// Endpoint → binding routing table for one process. Thread-safe. Bindings
/// attach on construction and detach on destruction; the hub must outlive
/// every binding attached to it.
class LocalHub {
 public:
  LocalHub() = default;
  LocalHub(const LocalHub&) = delete;
  LocalHub& operator=(const LocalHub&) = delete;

  /// Lifetime total flushes into the metrics registry at teardown (the
  /// hub outlives every binding, so this lands after their flushes).
  ~LocalHub() { obs::count(obs::Counter::kLocalUndeliverable, undeliverable_); }

  [[nodiscard]] LocalBinding* find(const net::Endpoint& endpoint) const;

  [[nodiscard]] std::size_t binding_count() const;
  /// Messages addressed to endpoints with no attached binding (mirrors the
  /// dropped-packet accounting of the datagram networks).
  [[nodiscard]] std::uint64_t undeliverable() const;

 private:
  friend class LocalBinding;

  /// Throws std::logic_error when the binding's endpoint is already taken.
  void attach(LocalBinding* binding);
  void detach(const net::Endpoint& endpoint);
  void count_undeliverable();

  mutable std::mutex mutex_;
  std::unordered_map<net::Endpoint, LocalBinding*, net::EndpointHash> bindings_;
  std::uint64_t undeliverable_{0};
};

class LocalBinding final : public TransportBinding {
 public:
  /// The executor is used for timeout synthesis and for draining the inbox
  /// when two threads deliver concurrently; the binding must outlive any
  /// work queued on it. On the uncontended path delivery never leaves the
  /// sending thread. Throws std::logic_error when `self` is already
  /// attached to `hub`.
  LocalBinding(LocalHub& hub, common::Executor& executor, net::Endpoint self,
               someip::ClientId client_id);
  ~LocalBinding() override;

  [[nodiscard]] std::string_view transport_name() const noexcept override { return "local"; }

 private:
  struct Frame {
    someip::Message message;
    net::Endpoint from;
  };

  /// Routes the message to the peer's inbox. The payload (vector or
  /// loaned slab) is moved, never copied or serialized.
  void transmit(const net::Endpoint& destination, someip::Message message) override;
  /// In-process subscription management needs no control protocol:
  /// register directly with the serving binding.
  void send_subscription(const net::Endpoint& server, someip::ServiceId service,
                         someip::EventId event, bool subscribe) override;

  /// Peer-side entry point: enqueue, then drain unless this thread is
  /// already inside this binding's drain loop (the outer loop picks the
  /// frame up instead — no recursion). When another thread holds the
  /// drain lock, the drain is posted to the executor rather than blocked
  /// on, so cross-binding delivery chains cannot deadlock.
  void deliver(Frame frame);
  void pump();
  void drain_locked();

  LocalHub& hub_;
  common::MpscQueue<Frame> inbox_;
  std::atomic<std::thread::id> pumping_thread_{};
};

}  // namespace dear::ara::com
