// Zero-copy intra-process backend of the transport binding contract.
//
// For SWCs deployed into the same OS process there is no reason to pay for
// SOME/IP serialization and a (simulated or real) network hop: LocalBinding
// moves the someip::Message structure itself — payload vector and all —
// through a lock-free MPSC queue into the destination binding. Logical
// tags travel in-band on the message (Message::tag), so the DEAR bypass
// contract behaves exactly as over the wire, minus the 12-byte trailer
// codec.
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
// recursing, so request→response→request chains cannot deadlock.
//
// A binding built on a DES executor (Executor::single_threaded) is owned
// by the kernel thread: it claims its mutexes and bypasses as
// single-owner, so delivery and dispatch take no locks. The LocalHub and
// the inbox stay thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ara/com/transport_binding.hpp"
#include "common/executor.hpp"
#include "common/mpsc_queue.hpp"
#include "common/owner_mutex.hpp"
#include "obs/obs.hpp"
#include "someip/timestamp_bypass.hpp"

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
  /// sending thread.
  LocalBinding(LocalHub& hub, common::Executor& executor, net::Endpoint self,
               someip::ClientId client_id);
  ~LocalBinding() override;

  LocalBinding(const LocalBinding&) = delete;
  LocalBinding& operator=(const LocalBinding&) = delete;

  // --- TransportBinding ----------------------------------------------------

  someip::SessionId call(const net::Endpoint& server, someip::ServiceId service,
                         someip::MethodId method, std::vector<std::uint8_t> payload,
                         ResponseHandler on_response, Duration timeout) override;
  void call_no_return(const net::Endpoint& server, someip::ServiceId service,
                      someip::MethodId method, std::vector<std::uint8_t> payload) override;
  void subscribe(const net::Endpoint& server, someip::ServiceId service, someip::EventId event,
                 NotificationHandler handler) override;
  void unsubscribe(const net::Endpoint& server, someip::ServiceId service,
                   someip::EventId event) override;

  void provide_method(someip::ServiceId service, someip::MethodId method,
                      RequestHandler handler) override;
  void remove_method(someip::ServiceId service, someip::MethodId method) override;
  void respond(const someip::Message& request, const net::Endpoint& to,
               std::vector<std::uint8_t> payload, someip::ReturnCode return_code) override;
  void notify(someip::ServiceId service, someip::EventId event,
              std::vector<std::uint8_t> payload) override;
  /// Sensor data plane: every subscriber receives a handle to the same
  /// slab (copy = refcount retain) — zero encode, zero payload memcpy,
  /// and zero allocations on the steady-state path.
  void notify_loaned(someip::ServiceId service, someip::EventId event,
                     common::LoanedBuffer payload) override;
  [[nodiscard]] std::size_t subscriber_count(someip::ServiceId service,
                                             someip::EventId event) const override;

  void attach_send_tag(const someip::WireTag& tag) override;
  [[nodiscard]] std::optional<someip::WireTag> collect_received_tag() override;
  [[nodiscard]] bool received_tag_armed() const override;
  [[nodiscard]] std::optional<someip::WireTag> peek_send_tag() const override;

  void set_fault_plan(const ft::FaultPlan* plan) override { fault_plan_ = plan; }
  [[nodiscard]] const ft::FaultPlan* fault_plan() const noexcept override { return fault_plan_; }

  [[nodiscard]] net::Endpoint endpoint() const noexcept override { return self_; }
  [[nodiscard]] someip::ClientId client_id() const noexcept override { return client_id_; }
  [[nodiscard]] TransportStats stats() const override;
  [[nodiscard]] std::string_view transport_name() const noexcept override { return "local"; }

  /// True when built on a single-threaded (DES) executor: no locking.
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

 private:
  struct Frame {
    someip::Message message;
    net::Endpoint from;
  };

  /// Peer-side entry point: enqueue, then drain unless this thread is
  /// already inside this binding's drain loop (the outer loop picks the
  /// frame up instead — no recursion). When another thread holds the
  /// drain lock, the drain is posted to the executor rather than blocked
  /// on, so cross-binding delivery chains cannot deadlock.
  void deliver(Frame frame);
  void pump();
  void drain_locked();
  void process(Frame& frame);

  void handle_request(const someip::Message& message, const net::Endpoint& from);
  void handle_response(const someip::Message& message);
  void handle_notification(const someip::Message& message);

  /// Collects the pending send tag into the message and routes it. The
  /// payload is moved, never copied or serialized.
  void send_frame(const net::Endpoint& destination, someip::Message message);

  void add_subscriber(someip::ServiceId service, someip::EventId event,
                      const net::Endpoint& subscriber);
  void remove_subscriber(someip::ServiceId service, someip::EventId event,
                         const net::Endpoint& subscriber);

  LocalHub& hub_;
  common::Executor& executor_;
  net::Endpoint self_;
  someip::ClientId client_id_;
  const ft::FaultPlan* fault_plan_{nullptr};

  someip::TimestampBypass send_bypass_;
  someip::TimestampBypass receive_bypass_;

  common::MpscQueue<Frame> inbox_;
  common::OwnerMutex receive_mutex_;
  std::atomic<std::thread::id> pumping_thread_{};

  mutable common::OwnerMutex mutex_;
  someip::SessionId next_session_{1};
  std::map<someip::SessionId, ResponseHandler> pending_;
  std::map<std::pair<someip::ServiceId, someip::MethodId>, RequestHandler> methods_;
  std::map<std::pair<someip::ServiceId, someip::EventId>, NotificationHandler> event_handlers_;
  std::map<std::pair<someip::ServiceId, someip::EventId>, std::vector<net::Endpoint>> subscribers_;

  std::uint64_t msgs_sent_{0};
  std::uint64_t msgs_received_{0};
  std::uint64_t requests_sent_{0};
  std::uint64_t responses_received_{0};
  std::uint64_t notifications_sent_{0};
  std::uint64_t notifications_received_{0};
  std::uint64_t tagged_sent_{0};
  std::uint64_t tagged_received_{0};
  std::uint64_t timeouts_{0};
};

}  // namespace dear::ara::com
