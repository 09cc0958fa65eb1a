// SOME/IP backend of the binding engine: the paper's modified SOME/IP
// stack over a net::Network.
//
// One binding per SWC process endpoint. On top of the shared engine
// (transport_binding.hpp) it frames every message onto the wire — the DEAR
// tag travels as a 12-byte trailer — decodes arriving datagrams (counting
// the malformed ones), manages event subscriptions with a small control
// protocol, and gives sessioned requests at-most-once delivery, since only
// a network duplicates datagrams.
//
// The receive path is serialized per binding (vsomeip dispatches
// per-application in the same way). A binding on a DES executor needs its
// network to deliver on the kernel thread too, as SimNetwork does.
#pragma once

#include <array>
#include <cstdint>

#include "ara/com/transport_binding.hpp"
#include "net/network.hpp"

namespace dear::ara::com {

class SomeIpBinding final : public TransportBinding {
 public:
  /// Control service used for subscription management (mirrors the SD
  /// service id reserved by SOME/IP).
  static constexpr someip::ServiceId kControlService = 0xFFFF;
  static constexpr someip::MethodId kSubscribeMethod = 0x0001;
  static constexpr someip::MethodId kUnsubscribeMethod = 0x0002;

  /// Binds `self` on `network`; throws std::logic_error when the endpoint
  /// is already bound.
  SomeIpBinding(net::Network& network, common::Executor& executor, net::Endpoint self,
                someip::ClientId client_id);
  ~SomeIpBinding() override;

  [[nodiscard]] std::string_view transport_name() const noexcept override { return "someip"; }

  /// Requests discarded by at-most-once delivery (same client and session
  /// seen before, e.g. a network-duplicated datagram).
  [[nodiscard]] std::uint64_t duplicate_requests() const;

 private:
  void transmit(const net::Endpoint& destination, someip::Message message) override;
  void send_subscription(const net::Endpoint& server, someip::ServiceId service,
                         someip::EventId event, bool subscribe) override;
  bool admit_request(const someip::Message& request, const net::Endpoint& from) override;

  void on_packet(const net::Packet& packet);
  void handle_control(const someip::Message& message, const net::Endpoint& from);

  /// True (and recorded) the first time (client, session) is seen within
  /// the recent-request window; false for a duplicate. Call under mutex_.
  [[nodiscard]] bool record_request(someip::ClientId client, someip::SessionId session);

  net::Network& network_;

  /// Recently seen (client << 16 | session) request keys, FIFO-bounded.
  /// Method execution is not idempotent (each request gets its own
  /// response and its own server-side call state), so a duplicated
  /// request datagram must be dropped here — SOME/IP sessions exist
  /// precisely to give requests at-most-once identity. A lookup is one
  /// fixed-length scan of the ring (no allocation, vectorizable); the
  /// zero-initialized slots never match, since sessioned keys are nonzero.
  static constexpr std::size_t kRecentRequestWindow = 128;
  std::array<std::uint32_t, kRecentRequestWindow> recent_request_ring_{};
  std::size_t recent_request_head_{0};

  /// Receive-path scratch message (guarded by receive_mutex_): payload
  /// capacity is recycled across packets.
  someip::Message rx_message_;

  std::uint64_t bytes_sent_{0};
  std::uint64_t bytes_received_{0};
  std::uint64_t duplicate_requests_{0};
};

}  // namespace dear::ara::com
