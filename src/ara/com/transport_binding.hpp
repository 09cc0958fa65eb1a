// The ara::com binding engine, shared by every transport.
//
// The ara::com layer (Runtime, ServiceProxy/ServiceSkeleton and the typed
// method/event/field templates) and the DEAR transactors talk to transports
// exclusively through this class. It holds everything the transports share:
// session allocation and the pending-response table with timeout synthesis,
// the method, event-handler and subscriber tables, the notify fan-out, the
// fault-plan checks, the timestamp bypass pair and the traffic counters.
// A backend supplies only what it alone knows, through three hooks:
//   * SomeIpBinding — encodes onto a net::Network, decodes and counts
//     malformed packets, manages subscriptions with control messages and
//     drops network-duplicated requests (someip_binding.hpp);
//   * LocalBinding  — hands messages to co-located SWCs through a LocalHub
//     and an inbox, subscribing directly at the peer (local_binding.hpp).
// A Runtime selects the backend per InstanceIdentifier through its
// BindingRegistry + DeploymentConfig (binding_registry.hpp).
//
// The in-memory message representation is the SOME/IP framing structure
// (someip::Message): service/method/client/session ids are AUTOSAR-level
// identifiers, not transport details. Whether a backend serializes the
// structure to a wire format (SOME/IP) or moves it through process memory
// (local) is its own business.
//
// DEAR's timestamp bypass (paper §III.B, Figure 3) is part of the engine:
// attach_send_tag() arms the tag carried by the next outgoing message, and
// collect_received_tag() surrenders the tag of the message currently being
// delivered. Both rely on the synchronous call nesting between transactor
// and binding, exactly as in the paper. Every delivered message runs the
// same receive order: crash check → counters → tag deposit → (request:
// admission → fault die → handler) → stale-tag collect. The backend
// serializes deliveries per binding, which makes the deposit→handler
// pairing race-free.
//
// A binding built on a DES executor (Executor::single_threaded) is owned
// by the kernel thread and claims its mutexes and bypasses as
// single-owner: no locking on send or receive.
//
// Payload vectors handed to call(), call_no_return(), respond() and
// notify() are consumed, and each goes back to common::BufferPool where its
// trip ends: after framing on SOME/IP, after the receive handler locally.
// Payloads from someip::encode_payload() or BufferPool::acquire() therefore
// recycle without touching the system allocator; a vector from anywhere
// else joins the pool instead of being freed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/executor.hpp"
#include "common/flat_map.hpp"
#include "common/owner_mutex.hpp"
#include "common/time.hpp"
#include "net/endpoint.hpp"
#include "obs/obs.hpp"
#include "someip/message.hpp"
#include "someip/timestamp_bypass.hpp"
#include "someip/types.hpp"

namespace dear::ft {
class FaultPlan;
}  // namespace dear::ft

namespace dear::ara::com {

/// Transport-level traffic counters, uniform across backends.
struct TransportStats {
  std::uint64_t requests_sent{0};
  std::uint64_t responses_received{0};
  std::uint64_t notifications_sent{0};
  std::uint64_t notifications_received{0};
  std::uint64_t tagged_sent{0};
  std::uint64_t tagged_received{0};
  std::uint64_t malformed_received{0};
  std::uint64_t timeouts{0};
};

class TransportBinding {
 public:
  using ResponseHandler = std::function<void(const someip::Message&)>;
  using RequestHandler = std::function<void(const someip::Message&, const net::Endpoint& from)>;
  using NotificationHandler = std::function<void(const someip::Message&)>;

  TransportBinding(const TransportBinding&) = delete;
  TransportBinding& operator=(const TransportBinding&) = delete;
  virtual ~TransportBinding();

  // --- client role ---------------------------------------------------------

  /// Sends a method request. `on_response` fires (from the backend's
  /// receive path) with the response or, if `timeout` > 0 elapses first,
  /// with a synthesized kTimeout error message. Returns the session id.
  someip::SessionId call(const net::Endpoint& server, someip::ServiceId service,
                         someip::MethodId method, std::vector<std::uint8_t> payload,
                         ResponseHandler on_response, Duration timeout = 0);

  /// Fire-and-forget request (REQUEST_NO_RETURN).
  void call_no_return(const net::Endpoint& server, someip::ServiceId service,
                      someip::MethodId method, std::vector<std::uint8_t> payload);

  /// Subscribes to event notifications from `server`. The handler runs on
  /// the backend's receive path. Subscribing again replaces the handler.
  void subscribe(const net::Endpoint& server, someip::ServiceId service, someip::EventId event,
                 NotificationHandler handler);

  void unsubscribe(const net::Endpoint& server, someip::ServiceId service,
                   someip::EventId event);

  // --- server role ---------------------------------------------------------

  /// Registers the handler for incoming requests to (service, method).
  void provide_method(someip::ServiceId service, someip::MethodId method,
                      RequestHandler handler);

  void remove_method(someip::ServiceId service, someip::MethodId method);

  /// Sends the response for `request` back to `to`.
  void respond(const someip::Message& request, const net::Endpoint& to,
               std::vector<std::uint8_t> payload,
               someip::ReturnCode return_code = someip::ReturnCode::kOk);

  /// Sends a notification for (service, event) to all subscribers; the
  /// last subscriber receives the payload itself, the others a pooled
  /// copy.
  void notify(someip::ServiceId service, someip::EventId event,
              std::vector<std::uint8_t> payload);

  /// Sends a published loaned slab to all subscribers (the sensor data
  /// plane). Each message carries a refcount retain on the same storage:
  /// the local backend hands it through, the SOME/IP backend frames header
  /// and tag trailer around the bytes without serializing them.
  void notify_loaned(someip::ServiceId service, someip::EventId event,
                     common::LoanedBuffer payload);

  [[nodiscard]] std::size_t subscriber_count(someip::ServiceId service,
                                             someip::EventId event) const;

  // --- DEAR pending-tag contract (paper Figure 3) ---------------------------

  /// Arms the logical tag carried by the next outgoing message (steps 2/5
  /// and 13/16).
  void attach_send_tag(const someip::WireTag& tag) { send_bypass_.deposit(tag); }

  /// Surrenders the tag deposited for the message currently being
  /// delivered, or nullopt for untagged traffic (steps 7/10 and 18/21).
  [[nodiscard]] std::optional<someip::WireTag> collect_received_tag() {
    return receive_bypass_.collect();
  }

  /// True while a received tag is waiting to be collected.
  [[nodiscard]] bool received_tag_armed() const { return receive_bypass_.armed(); }

  /// Returns the armed send tag without disarming it, or nullopt when no
  /// tag is pending. The retry layer records it so a retried attempt can
  /// re-arm the original tag advanced by its logical backoff.
  [[nodiscard]] std::optional<someip::WireTag> peek_send_tag() const {
    return send_bypass_.peek();
  }

  [[nodiscard]] const someip::TimestampBypass& send_bypass() const noexcept {
    return send_bypass_;
  }
  [[nodiscard]] const someip::TimestampBypass& receive_bypass() const noexcept {
    return receive_bypass_;
  }

  // --- deterministic fault injection (ft/fault_model.hpp) -------------------

  /// Installs (or clears, with nullptr) the shared injection plan; it must
  /// outlive the binding. A binding whose endpoint matches the plan's
  /// victim drops all tagged traffic in and out while the wire tag is
  /// inside the down window; any plan-installed binding rolls the per-call
  /// fault die on incoming sessioned requests.
  void set_fault_plan(const ft::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  [[nodiscard]] const ft::FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  // --- identity + statistics -----------------------------------------------

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return self_; }
  [[nodiscard]] someip::ClientId client_id() const noexcept { return client_id_; }
  [[nodiscard]] TransportStats stats() const;
  /// True when built on a single-threaded (DES) executor: no locking.
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

  /// Short transport identifier for logs/benches, e.g. "someip" or "local".
  [[nodiscard]] virtual std::string_view transport_name() const noexcept = 0;

 protected:
  /// Metrics-registry counters the lifetime totals flush into.
  struct ObsCounters {
    obs::Counter msgs_sent;
    obs::Counter msgs_received;
    obs::Counter tagged_sent;
    obs::Counter tagged_received;
    obs::Counter timeouts;
  };

  TransportBinding(common::Executor& executor, net::Endpoint self, someip::ClientId client_id,
                   ObsCounters counters);

  /// Picks up the armed send tag (Figure 3, steps 5 and 16), drops tagged
  /// traffic of a crashed victim, counts the message and hands it to
  /// transmit().
  void send_message(const net::Endpoint& destination, someip::Message message);

  /// The shared receive path for one delivered message. The caller holds
  /// receive_mutex_, so deliveries never interleave.
  void receive(const someip::Message& message, const net::Endpoint& from);

  void add_subscriber(someip::ServiceId service, someip::EventId event,
                      const net::Endpoint& subscriber);
  void remove_subscriber(someip::ServiceId service, someip::EventId event,
                         const net::Endpoint& subscriber);

  void count_malformed();

  common::Executor& executor_;
  /// Guards the tables and counters, the backend's own counters included.
  mutable common::OwnerMutex mutex_;
  /// Serializes deliveries (see receive()).
  common::OwnerMutex receive_mutex_;

 private:
  /// Moves a counted, tagged-or-not message to `destination`.
  virtual void transmit(const net::Endpoint& destination, someip::Message message) = 0;

  /// Tells `server` to add (or remove) this binding as a subscriber.
  virtual void send_subscription(const net::Endpoint& server, someip::ServiceId service,
                                 someip::EventId event, bool subscribe) = 0;

  /// Runs before the fault die and the handler of a delivered request;
  /// false consumes the request. The default admits every request.
  virtual bool admit_request(const someip::Message& request, const net::Endpoint& from);

  /// Sends one notification per subscriber, re-arming the send tag for
  /// each; `set_payload(message, last)` fills in the payload.
  template <typename SetPayload>
  void fan_out(someip::ServiceId service, someip::EventId event, SetPayload set_payload);

  /// True (and counted) when a crashed victim must drop `message`.
  [[nodiscard]] bool crash_drops(const someip::Message& message) const;

  void handle_request(const someip::Message& message, const net::Endpoint& from);
  void handle_response(const someip::Message& message);
  void handle_notification(const someip::Message& message);

  net::Endpoint self_;
  someip::ClientId client_id_;
  ObsCounters obs_counters_;
  const ft::FaultPlan* fault_plan_{nullptr};

  someip::TimestampBypass send_bypass_;
  someip::TimestampBypass receive_bypass_;

  someip::SessionId next_session_{1};
  /// All four tables are sorted flat maps: per-call lookup walks
  /// contiguous memory instead of chasing tree nodes, and insert/erase
  /// churn (pending responses) stops allocating once capacity is warm.
  common::FlatMap<someip::SessionId, ResponseHandler> pending_;
  common::FlatMap<std::pair<someip::ServiceId, someip::MethodId>, RequestHandler> methods_;
  common::FlatMap<std::pair<someip::ServiceId, someip::EventId>, NotificationHandler>
      event_handlers_;
  common::FlatMap<std::pair<someip::ServiceId, someip::EventId>, std::vector<net::Endpoint>>
      subscribers_;

  std::uint64_t msgs_sent_{0};
  std::uint64_t msgs_received_{0};
  TransportStats stats_;
};

}  // namespace dear::ara::com
