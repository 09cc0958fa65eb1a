// SOME/IP runtime binding.
//
// One Binding per SWC process: it frames/parses messages, matches responses
// to requests via session ids, routes notifications to event handlers, and
// manages event subscriptions via a small control protocol. This is the
// layer the paper modified: on every send it collects a pending tag from
// the send-side timestamp bypass and appends it to the wire message; on
// every receive it deposits an attached tag into the receive-side bypass
// before invoking the handler (Figure 3, steps 5/7 and 16/18).
//
// The receive path is serialized per binding (vsomeip dispatches
// per-application in the same way), which also makes the deposit→handler
// pairing race-free. A binding built on a DES executor
// (Executor::single_threaded) is owned by the kernel thread and claims its
// mutexes and bypasses as single-owner: no locking on send or receive. Its
// network must then deliver on that thread too, as SimNetwork does.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/executor.hpp"
#include "common/flat_map.hpp"
#include "common/owner_mutex.hpp"
#include "common/time.hpp"
#include "net/network.hpp"
#include "someip/message.hpp"
#include "someip/timestamp_bypass.hpp"
#include "someip/types.hpp"

namespace dear::ft {
class FaultPlan;
}  // namespace dear::ft

namespace dear::someip {

/// Control service used for subscription management (mirrors the SD
/// service id reserved by SOME/IP).
inline constexpr ServiceId kControlService = 0xFFFF;
inline constexpr MethodId kSubscribeMethod = 0x0001;
inline constexpr MethodId kUnsubscribeMethod = 0x0002;

class Binding {
 public:
  using ResponseHandler = std::function<void(const Message&)>;
  using RequestHandler = std::function<void(const Message&, const net::Endpoint& from)>;
  using NotificationHandler = std::function<void(const Message&)>;

  Binding(net::Network& network, common::Executor& executor, net::Endpoint self,
          ClientId client_id);
  ~Binding();

  Binding(const Binding&) = delete;
  Binding& operator=(const Binding&) = delete;

  // --- client role ---------------------------------------------------------

  /// Sends a method request. `on_response` fires (from the receive path)
  /// with the response or, if `timeout` > 0 elapses first, with a
  /// synthesized kTimeout error message. Returns the session id.
  SessionId call(const net::Endpoint& server, ServiceId service, MethodId method,
                 std::vector<std::uint8_t> payload, ResponseHandler on_response,
                 Duration timeout = 0);

  /// Fire-and-forget request (REQUEST_NO_RETURN).
  void call_no_return(const net::Endpoint& server, ServiceId service, MethodId method,
                      std::vector<std::uint8_t> payload);

  /// Subscribes to event notifications from `server`. The handler runs on
  /// the receive path.
  void subscribe(const net::Endpoint& server, ServiceId service, EventId event,
                 NotificationHandler handler);

  void unsubscribe(const net::Endpoint& server, ServiceId service, EventId event);

  // --- server role ---------------------------------------------------------

  /// Registers the handler for incoming requests to (service, method).
  void provide_method(ServiceId service, MethodId method, RequestHandler handler);

  void remove_method(ServiceId service, MethodId method);

  /// Sends the response for `request` back to `to`.
  void respond(const Message& request, const net::Endpoint& to,
               std::vector<std::uint8_t> payload, ReturnCode return_code = ReturnCode::kOk);

  /// Sends a notification for (service, event) to all subscribers.
  void notify(ServiceId service, EventId event, std::vector<std::uint8_t> payload);

  /// Loaned-slab notification (sensor data plane): the header + DEAR tag
  /// trailer are framed around the slab bytes without serializing them —
  /// encode performs one bulk copy onto the wire per subscriber, never a
  /// field-by-field pass over the payload.
  void notify_loaned(ServiceId service, EventId event, common::LoanedBuffer payload);

  [[nodiscard]] std::size_t subscriber_count(ServiceId service, EventId event) const;

  // --- DEAR tag extension ----------------------------------------------------

  /// Bypass collected on every outgoing message.
  [[nodiscard]] TimestampBypass& send_bypass() noexcept { return send_bypass_; }
  [[nodiscard]] const TimestampBypass& send_bypass() const noexcept { return send_bypass_; }
  /// Bypass deposited on every incoming tagged message.
  [[nodiscard]] TimestampBypass& receive_bypass() noexcept { return receive_bypass_; }
  [[nodiscard]] const TimestampBypass& receive_bypass() const noexcept { return receive_bypass_; }

  [[nodiscard]] net::Endpoint endpoint() const noexcept { return self_; }
  [[nodiscard]] ClientId client_id() const noexcept { return client_id_; }
  /// True when built on a single-threaded (DES) executor: no locking.
  [[nodiscard]] bool single_owner() const noexcept { return mutex_.single_owner(); }

  // --- deterministic fault injection -----------------------------------------

  /// Installs (or clears) the shared injection plan; it must outlive the
  /// binding. A binding whose endpoint matches the plan's victim drops all
  /// tagged traffic in and out while the wire tag is inside the down
  /// window; any plan-installed binding rolls the per-call fault die on
  /// incoming sessioned requests.
  void set_fault_plan(const ft::FaultPlan* plan) noexcept { fault_plan_ = plan; }
  [[nodiscard]] const ft::FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  // --- statistics ------------------------------------------------------------

  /// Wire messages of any type, and their encoded bytes, per direction.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return msgs_sent_; }
  [[nodiscard]] std::uint64_t messages_received() const noexcept { return msgs_received_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }
  [[nodiscard]] std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  [[nodiscard]] std::uint64_t responses_received() const noexcept { return responses_received_; }
  [[nodiscard]] std::uint64_t notifications_sent() const noexcept { return notifications_sent_; }
  [[nodiscard]] std::uint64_t notifications_received() const noexcept {
    return notifications_received_;
  }
  [[nodiscard]] std::uint64_t tagged_sent() const noexcept { return tagged_sent_; }
  [[nodiscard]] std::uint64_t tagged_received() const noexcept { return tagged_received_; }
  [[nodiscard]] std::uint64_t malformed_received() const noexcept { return malformed_received_; }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  /// Requests discarded by at-most-once delivery (same client and session
  /// seen before, e.g. a network-duplicated datagram).
  [[nodiscard]] std::uint64_t duplicate_requests() const noexcept { return duplicate_requests_; }

 private:
  void on_packet(const net::Packet& packet);
  void handle_request(const Message& message, const net::Endpoint& from);
  void handle_response(const Message& message);
  void handle_notification(const Message& message, const net::Endpoint& from);
  void handle_control(const Message& message, const net::Endpoint& from);
  void send_message(const net::Endpoint& destination, Message message);

  net::Network& network_;
  common::Executor& executor_;
  net::Endpoint self_;
  ClientId client_id_;
  const ft::FaultPlan* fault_plan_{nullptr};

  TimestampBypass send_bypass_;
  TimestampBypass receive_bypass_;

  mutable common::OwnerMutex mutex_;
  common::OwnerMutex receive_mutex_;

  /// True (and recorded) the first time (client, session) is seen within
  /// the recent-request window; false for a duplicate. Call under mutex_.
  [[nodiscard]] bool record_request(ClientId client, SessionId session);

  SessionId next_session_{1};
  /// All four dispatch tables are sorted flat maps: per-call lookup walks
  /// contiguous memory instead of chasing tree nodes, and insert/erase
  /// churn (pending responses) stops allocating once capacity is warm.
  common::FlatMap<SessionId, ResponseHandler> pending_;
  /// Recently seen (client << 16 | session) request keys, FIFO-bounded.
  /// Method execution is not idempotent (each request gets its own
  /// response and its own server-side call state), so a duplicated
  /// request datagram must be dropped here — SOME/IP sessions exist
  /// precisely to give requests at-most-once identity. O(1) per request:
  /// this runs under mutex_ on the real-time receive path.
  static constexpr std::size_t kRecentRequestWindow = 128;
  std::unordered_set<std::uint32_t> recent_request_keys_;
  std::array<std::uint32_t, kRecentRequestWindow> recent_request_ring_{};
  std::size_t recent_request_head_{0};
  std::size_t recent_request_count_{0};
  common::FlatMap<std::pair<ServiceId, MethodId>, RequestHandler> methods_;
  common::FlatMap<std::pair<ServiceId, EventId>, NotificationHandler> event_handlers_;
  common::FlatMap<std::pair<ServiceId, EventId>, std::vector<net::Endpoint>> subscribers_;

  /// Receive-path scratch message (guarded by receive_mutex_): payload
  /// capacity is recycled across packets.
  Message rx_message_;

  std::uint64_t msgs_sent_{0};
  std::uint64_t msgs_received_{0};
  std::uint64_t bytes_sent_{0};
  std::uint64_t bytes_received_{0};
  std::uint64_t requests_sent_{0};
  std::uint64_t responses_received_{0};
  std::uint64_t notifications_sent_{0};
  std::uint64_t notifications_received_{0};
  std::uint64_t tagged_sent_{0};
  std::uint64_t tagged_received_{0};
  std::uint64_t malformed_received_{0};
  std::uint64_t timeouts_{0};
  std::uint64_t duplicate_requests_{0};
};

}  // namespace dear::someip
