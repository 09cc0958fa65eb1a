#include "ara/com/someip_binding.hpp"

#include <mutex>
#include <utility>

#include "common/logging.hpp"
#include "someip/serialization.hpp"

namespace dear::ara::com {

namespace {
constexpr std::string_view kLogComponent = "someip.binding";
}

SomeIpBinding::SomeIpBinding(net::Network& network, common::Executor& executor,
                             net::Endpoint self, someip::ClientId client_id)
    : TransportBinding(executor, self, client_id,
                       {obs::Counter::kSomeipMsgsSent, obs::Counter::kSomeipMsgsReceived,
                        obs::Counter::kSomeipTaggedSent, obs::Counter::kSomeipTaggedReceived,
                        obs::Counter::kSomeipTimeouts}),
      network_(network) {
  network_.bind(self, [this](const net::Packet& packet) { on_packet(packet); });
}

SomeIpBinding::~SomeIpBinding() {
  network_.unbind(endpoint());
  obs::count(obs::Counter::kSomeipBytesSent, bytes_sent_);
  obs::count(obs::Counter::kSomeipBytesReceived, bytes_received_);
  obs::count(obs::Counter::kSomeipDedupHits, duplicate_requests_);
  obs::count(obs::Counter::kSomeipMalformed, stats().malformed_received);
}

std::uint64_t SomeIpBinding::duplicate_requests() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return duplicate_requests_;
}

void SomeIpBinding::transmit(const net::Endpoint& destination, someip::Message message) {
  const std::size_t wire_bytes = message.encoded_size();
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    bytes_sent_ += wire_bytes;
  }
  // Encode into a recycled wire buffer; the network layer releases it back
  // to the pool after delivery, closing the allocation-free send cycle. The
  // payload is spent once framed, so it goes back to the pool here.
  std::vector<std::uint8_t> wire = common::BufferPool::instance().acquire(wire_bytes);
  message.encode_into(wire);
  common::BufferPool::instance().release(std::move(message.payload));
  network_.send(endpoint(), destination, std::move(wire));
}

void SomeIpBinding::send_subscription(const net::Endpoint& server, someip::ServiceId service,
                                      someip::EventId event, bool subscribe) {
  someip::Writer writer(common::BufferPool::instance().acquire());
  writer.write_u16(service);
  writer.write_u16(event);
  someip::Message message;
  message.service = kControlService;
  message.method = subscribe ? kSubscribeMethod : kUnsubscribeMethod;
  message.client = client_id();
  message.type = someip::MessageType::kRequestNoReturn;
  message.payload = writer.take();
  send_message(server, std::move(message));
}

void SomeIpBinding::on_packet(const net::Packet& packet) {
  // Serialize the receive path: the engine's deposit→handler pairing must
  // not interleave with another message's. Decoding into the scratch
  // message (payload capacity recycled) rides the same serialization.
  const std::lock_guard<common::OwnerMutex> receive_lock(receive_mutex_);
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    bytes_received_ += packet.payload.size();
  }
  if (!someip::Message::decode_into(packet.payload.data(), packet.payload.size(), rx_message_)) {
    count_malformed();
    DEAR_LOG_WARN(kLogComponent) << endpoint().to_string() << ": dropping malformed packet from "
                                 << packet.source.to_string();
    return;
  }
  receive(rx_message_, packet.source);
}

bool SomeIpBinding::admit_request(const someip::Message& request, const net::Endpoint& from) {
  // Subscription management arrives as requests to the control service.
  if (request.service == kControlService) {
    handle_control(request, from);
    return false;
  }
  // At-most-once delivery for sessioned requests: a network-duplicated
  // datagram must not execute the method a second time.
  if (request.type != someip::MessageType::kRequest || request.session == 0) {
    return true;
  }
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return record_request(request.client, request.session);
}

bool SomeIpBinding::record_request(someip::ClientId client, someip::SessionId session) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(client) << 16) | static_cast<std::uint32_t>(session);
  bool seen = false;
  for (const std::uint32_t recent : recent_request_ring_) {
    seen |= recent == key;
  }
  if (seen) {
    ++duplicate_requests_;
    return false;
  }
  // Bound the window FIFO-style: duplicates arrive within one link latency
  // of the original, so a small horizon is ample.
  recent_request_ring_[recent_request_head_] = key;
  recent_request_head_ = (recent_request_head_ + 1) % kRecentRequestWindow;
  return true;
}

void SomeIpBinding::handle_control(const someip::Message& message, const net::Endpoint& from) {
  someip::Reader reader(message.payload);
  const someip::ServiceId service = reader.read_u16();
  const someip::EventId event = reader.read_u16();
  if (!reader.ok()) {
    count_malformed();
    return;
  }
  if (message.method == kSubscribeMethod) {
    add_subscriber(service, event, from);
  } else if (message.method == kUnsubscribeMethod) {
    remove_subscriber(service, event, from);
  }
}

}  // namespace dear::ara::com
