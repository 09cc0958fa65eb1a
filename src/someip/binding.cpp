#include "someip/binding.hpp"

#include <algorithm>
#include <utility>

#include "common/buffer_pool.hpp"
#include "common/logging.hpp"
#include "ft/fault_model.hpp"
#include "obs/obs.hpp"

namespace dear::someip {

namespace {
constexpr std::string_view kLogComponent = "someip.binding";
}

Binding::Binding(net::Network& network, common::Executor& executor, net::Endpoint self,
                 ClientId client_id)
    : network_(network), executor_(executor), self_(self), client_id_(client_id) {
  if (executor_.single_threaded()) {
    // A DES executor: the kernel thread is the only one that sends,
    // receives or times out on this binding.
    mutex_.claim_single_owner();
    receive_mutex_.claim_single_owner();
    send_bypass_.claim_single_owner();
    receive_bypass_.claim_single_owner();
  }
  // Pre-size the dedup set: no rehash allocations on the receive path.
  recent_request_keys_.reserve(kRecentRequestWindow + 1);
  network_.bind(self_, [this](const net::Packet& packet) { on_packet(packet); });
}

Binding::~Binding() {
  network_.unbind(self_);
  // Lifetime totals flush into the metrics registry; the hot paths above
  // keep their plain member counters under the locks they already take.
  obs::count(obs::Counter::kSomeipMsgsSent, msgs_sent_);
  obs::count(obs::Counter::kSomeipMsgsReceived, msgs_received_);
  obs::count(obs::Counter::kSomeipBytesSent, bytes_sent_);
  obs::count(obs::Counter::kSomeipBytesReceived, bytes_received_);
  obs::count(obs::Counter::kSomeipTaggedSent, tagged_sent_);
  obs::count(obs::Counter::kSomeipTaggedReceived, tagged_received_);
  obs::count(obs::Counter::kSomeipDedupHits, duplicate_requests_);
  obs::count(obs::Counter::kSomeipMalformed, malformed_received_);
  obs::count(obs::Counter::kSomeipTimeouts, timeouts_);
}

void Binding::send_message(const net::Endpoint& destination, Message message) {
  // The paper's modification: pick up a pending tag from the bypass and
  // attach it to the outgoing message (Figure 3, steps 5 and 16).
  message.tag = send_bypass_.collect();
  // Injected crash: while the victim node is down, its tagged traffic dies
  // at the binding exactly as if the process were gone. Untagged control
  // traffic passes, so peers keep their subscription state (warm restart).
  if (fault_plan_ != nullptr && message.tag.has_value() && fault_plan_->crashes(self_) &&
      fault_plan_->down_at(message.tag->time)) {
    fault_plan_->crash_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t wire_bytes = message.encoded_size();
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_sent_;
    bytes_sent_ += wire_bytes;
    if (message.tag.has_value()) {
      ++tagged_sent_;
    }
  }
  // Encode into a recycled wire buffer; the network layer releases it back
  // to the pool after delivery, closing the allocation-free send cycle.
  std::vector<std::uint8_t> wire = common::BufferPool::instance().acquire(wire_bytes);
  message.encode_into(wire);
  network_.send(self_, destination, std::move(wire));
}

SessionId Binding::call(const net::Endpoint& server, ServiceId service, MethodId method,
                        std::vector<std::uint8_t> payload, ResponseHandler on_response,
                        Duration timeout) {
  SessionId session = 0;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    session = next_session_++;
    if (next_session_ == 0) {
      next_session_ = 1;  // session id 0 is reserved
    }
    pending_[session] = std::move(on_response);
    ++requests_sent_;
  }

  Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = session;
  message.type = MessageType::kRequest;
  message.payload = std::move(payload);
  send_message(server, std::move(message));

  if (timeout > 0) {
    executor_.post_after(timeout, [this, session, service, method] {
      ResponseHandler handler;
      {
        const std::lock_guard<common::OwnerMutex> lock(mutex_);
        const auto it = pending_.find(session);
        if (it == pending_.end()) {
          return;  // response already arrived
        }
        handler = std::move(it->second);
        pending_.erase(it);
        ++timeouts_;
      }
      Message error;
      error.service = service;
      error.method = method;
      error.client = client_id_;
      error.session = session;
      error.type = MessageType::kError;
      error.return_code = ReturnCode::kTimeout;
      handler(error);
    });
  }
  return session;
}

void Binding::call_no_return(const net::Endpoint& server, ServiceId service, MethodId method,
                             std::vector<std::uint8_t> payload) {
  Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = 0;
  message.type = MessageType::kRequestNoReturn;
  message.payload = std::move(payload);
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++requests_sent_;
  }
  send_message(server, std::move(message));
}

void Binding::subscribe(const net::Endpoint& server, ServiceId service, EventId event,
                        NotificationHandler handler) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_[{service, event}] = std::move(handler);
  }
  Writer writer;
  writer.write_u16(service);
  writer.write_u16(event);
  Message message;
  message.service = kControlService;
  message.method = kSubscribeMethod;
  message.client = client_id_;
  message.type = MessageType::kRequestNoReturn;
  message.payload = writer.take();
  send_message(server, std::move(message));
}

void Binding::unsubscribe(const net::Endpoint& server, ServiceId service, EventId event) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_.erase({service, event});
  }
  Writer writer;
  writer.write_u16(service);
  writer.write_u16(event);
  Message message;
  message.service = kControlService;
  message.method = kUnsubscribeMethod;
  message.client = client_id_;
  message.type = MessageType::kRequestNoReturn;
  message.payload = writer.take();
  send_message(server, std::move(message));
}

void Binding::provide_method(ServiceId service, MethodId method, RequestHandler handler) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_[{service, method}] = std::move(handler);
}

void Binding::remove_method(ServiceId service, MethodId method) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_.erase({service, method});
}

void Binding::respond(const Message& request, const net::Endpoint& to,
                      std::vector<std::uint8_t> payload, ReturnCode return_code) {
  Message message;
  message.service = request.service;
  message.method = request.method;
  message.client = request.client;
  message.session = request.session;
  message.type = return_code == ReturnCode::kOk ? MessageType::kResponse : MessageType::kError;
  message.return_code = return_code;
  message.payload = std::move(payload);
  send_message(to, std::move(message));
}

void Binding::notify(ServiceId service, EventId event, std::vector<std::uint8_t> payload) {
  std::vector<net::Endpoint> subscribers;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = subscribers_.find({service, event});
    if (it != subscribers_.end()) {
      subscribers = it->second;
    }
    ++notifications_sent_;
  }
  // The tag (if any) must reach every subscriber; collect once and re-arm
  // for each send.
  const std::optional<WireTag> tag = send_bypass_.collect();
  for (const net::Endpoint& subscriber : subscribers) {
    if (tag.has_value()) {
      send_bypass_.deposit(*tag);
    }
    Message message;
    message.service = service;
    message.method = event;
    message.client = client_id_;
    message.type = MessageType::kNotification;
    message.payload = payload;
    send_message(subscriber, std::move(message));
  }
}

void Binding::notify_loaned(ServiceId service, EventId event, common::LoanedBuffer payload) {
  if (!payload) {
    return;
  }
  std::vector<net::Endpoint> subscribers;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = subscribers_.find({service, event});
    if (it != subscribers_.end()) {
      subscribers = it->second;
    }
    ++notifications_sent_;
  }
  const std::optional<WireTag> tag = send_bypass_.collect();
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    if (tag.has_value()) {
      send_bypass_.deposit(*tag);
    }
    Message message;
    message.service = service;
    message.method = event;
    message.client = client_id_;
    message.type = MessageType::kNotification;
    // Handle retain, not byte copy: encode_into frames the shared slab.
    if (i + 1 == subscribers.size()) {
      message.loaned = std::move(payload);
    } else {
      message.loaned = payload;
    }
    send_message(subscribers[i], std::move(message));
  }
}

std::size_t Binding::subscriber_count(ServiceId service, EventId event) const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  const auto it = subscribers_.find({service, event});
  return it == subscribers_.end() ? 0 : it->second.size();
}

void Binding::on_packet(const net::Packet& packet) {
  // Serialize the receive path: the deposit→handler pairing below must not
  // interleave with another message's. Decoding into the scratch message
  // (payload capacity recycled) rides the same serialization.
  const std::lock_guard<common::OwnerMutex> receive_lock(receive_mutex_);
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_received_;
    bytes_received_ += packet.payload.size();
  }
  if (!Message::decode_into(packet.payload.data(), packet.payload.size(), rx_message_)) {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++malformed_received_;
    DEAR_LOG_WARN(kLogComponent) << self_.to_string() << ": dropping malformed packet from "
                                 << packet.source.to_string();
    return;
  }
  Message& message = rx_message_;
  // Injected crash, receive side: a down victim does not process tagged
  // traffic either (messages already in flight at crash time die here).
  if (fault_plan_ != nullptr && message.tag.has_value() && fault_plan_->crashes(self_) &&
      fault_plan_->down_at(message.tag->time)) {
    fault_plan_->crash_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (message.tag.has_value()) {
    {
      const std::lock_guard<common::OwnerMutex> lock(mutex_);
      ++tagged_received_;
    }
    // Figure 3, steps 7 and 18: the modified binding deposits the received
    // tag before invoking the handler.
    receive_bypass_.deposit(*message.tag);
  }

  if (message.service == kControlService) {
    handle_control(message, packet.source);
  } else if (message.is_request()) {
    handle_request(message, packet.source);
  } else if (message.is_response()) {
    handle_response(message);
  } else if (message.is_notification()) {
    handle_notification(message, packet.source);
  }

  // A tag the handler did not collect is stale; clear it so it cannot be
  // mis-associated with the next untagged message.
  (void)receive_bypass_.collect();
}

bool Binding::record_request(ClientId client, SessionId session) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(client) << 16) | static_cast<std::uint32_t>(session);
  if (!recent_request_keys_.insert(key).second) {
    ++duplicate_requests_;
    return false;
  }
  // Bound the window FIFO-style: duplicates arrive within one link latency
  // of the original, so a small horizon is ample.
  if (recent_request_count_ == kRecentRequestWindow) {
    recent_request_keys_.erase(recent_request_ring_[recent_request_head_]);
  } else {
    ++recent_request_count_;
  }
  recent_request_ring_[recent_request_head_] = key;
  recent_request_head_ = (recent_request_head_ + 1) % kRecentRequestWindow;
  return true;
}

void Binding::handle_request(const Message& message, const net::Endpoint& from) {
  RequestHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    // At-most-once delivery for sessioned requests: a network-duplicated
    // datagram must not execute the method a second time.
    if (message.type == MessageType::kRequest && message.session != 0 &&
        !record_request(message.client, message.session)) {
      return;
    }
    const auto it = methods_.find({message.service, message.method});
    if (it != methods_.end()) {
      handler = it->second;
    }
  }
  // Per-call fault die (after dedup, so a duplicated datagram cannot
  // double-count): a pure function of (fault_seed, client, session), hence
  // identical across transports and worker counts.
  if (fault_plan_ != nullptr && message.type == MessageType::kRequest && message.session != 0) {
    switch (fault_plan_->call_fault(message.client, message.session)) {
      case ft::FaultPlan::CallFault::kOmission:
        return;  // swallowed: the client's timeout is the only signal
      case ft::FaultPlan::CallFault::kError:
        respond(message, from, {}, ReturnCode::kNotOk);
        return;
      case ft::FaultPlan::CallFault::kNone:
        break;
    }
  }
  if (!handler) {
    if (message.type == MessageType::kRequest) {
      respond(message, from, {}, ReturnCode::kUnknownMethod);
    }
    return;
  }
  handler(message, from);
}

void Binding::handle_response(const Message& message) {
  ResponseHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = pending_.find(message.session);
    if (it == pending_.end()) {
      return;  // late response after timeout, or duplicate
    }
    handler = std::move(it->second);
    pending_.erase(it);
    ++responses_received_;
  }
  handler(message);
}

void Binding::handle_notification(const Message& message, const net::Endpoint& /*from*/) {
  NotificationHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = event_handlers_.find({message.service, static_cast<EventId>(message.method)});
    if (it == event_handlers_.end()) {
      return;
    }
    handler = it->second;
    ++notifications_received_;
  }
  handler(message);
}

void Binding::handle_control(const Message& message, const net::Endpoint& from) {
  Reader reader(message.payload);
  const ServiceId service = reader.read_u16();
  const EventId event = reader.read_u16();
  if (!reader.ok()) {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++malformed_received_;
    return;
  }
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  auto& list = subscribers_[{service, event}];
  const auto it = std::find(list.begin(), list.end(), from);
  if (message.method == kSubscribeMethod) {
    if (it == list.end()) {
      list.push_back(from);
    }
  } else if (message.method == kUnsubscribeMethod) {
    if (it != list.end()) {
      list.erase(it);
    }
  }
}

}  // namespace dear::someip
