#include "ara/com/transport_binding.hpp"

#include <algorithm>
#include <mutex>

#include "ft/fault_model.hpp"

namespace dear::ara::com {

TransportBinding::TransportBinding(common::Executor& executor, net::Endpoint self,
                                   someip::ClientId client_id, ObsCounters counters)
    : executor_(executor), self_(self), client_id_(client_id), obs_counters_(counters) {
  if (executor_.single_threaded()) {
    // A DES executor: the kernel thread is the only one that sends,
    // receives or times out on this binding.
    mutex_.claim_single_owner();
    receive_mutex_.claim_single_owner();
    send_bypass_.claim_single_owner();
    receive_bypass_.claim_single_owner();
  }
}

TransportBinding::~TransportBinding() {
  // Lifetime totals flush into the metrics registry; the hot paths keep
  // their plain member counters under the locks they already take.
  obs::count(obs_counters_.msgs_sent, msgs_sent_);
  obs::count(obs_counters_.msgs_received, msgs_received_);
  obs::count(obs_counters_.tagged_sent, stats_.tagged_sent);
  obs::count(obs_counters_.tagged_received, stats_.tagged_received);
  obs::count(obs_counters_.timeouts, stats_.timeouts);
}

bool TransportBinding::crash_drops(const someip::Message& message) const {
  // Injected crash: while the victim node is down, its tagged traffic dies
  // at the binding in both directions, exactly as if the process were
  // gone. Untagged control traffic passes, so peers keep their
  // subscription state (warm restart).
  if (fault_plan_ == nullptr || !message.tag.has_value() || !fault_plan_->crashes(self_) ||
      !fault_plan_->down_at(message.tag->time)) {
    return false;
  }
  fault_plan_->crash_drops.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void TransportBinding::send_message(const net::Endpoint& destination, someip::Message message) {
  message.tag = send_bypass_.collect();
  if (crash_drops(message)) {
    common::BufferPool::instance().release(std::move(message.payload));
    return;
  }
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_sent_;
    if (message.tag.has_value()) {
      ++stats_.tagged_sent;
    }
  }
  transmit(destination, std::move(message));
}

someip::SessionId TransportBinding::call(const net::Endpoint& server, someip::ServiceId service,
                                         someip::MethodId method,
                                         std::vector<std::uint8_t> payload,
                                         ResponseHandler on_response, Duration timeout) {
  someip::SessionId session = 0;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    session = next_session_++;
    if (next_session_ == 0) {
      next_session_ = 1;  // session id 0 is reserved
    }
    pending_[session] = std::move(on_response);
    ++stats_.requests_sent;
  }

  someip::Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = session;
  message.type = someip::MessageType::kRequest;
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
        ++stats_.timeouts;
      }
      someip::Message error;
      error.service = service;
      error.method = method;
      error.client = client_id_;
      error.session = session;
      error.type = someip::MessageType::kError;
      error.return_code = someip::ReturnCode::kTimeout;
      handler(error);
    });
  }
  return session;
}

void TransportBinding::call_no_return(const net::Endpoint& server, someip::ServiceId service,
                                      someip::MethodId method,
                                      std::vector<std::uint8_t> payload) {
  someip::Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = 0;
  message.type = someip::MessageType::kRequestNoReturn;
  message.payload = std::move(payload);
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++stats_.requests_sent;
  }
  send_message(server, std::move(message));
}

void TransportBinding::subscribe(const net::Endpoint& server, someip::ServiceId service,
                                 someip::EventId event, NotificationHandler handler) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_[{service, event}] = std::move(handler);
  }
  send_subscription(server, service, event, true);
}

void TransportBinding::unsubscribe(const net::Endpoint& server, someip::ServiceId service,
                                   someip::EventId event) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_.erase({service, event});
  }
  send_subscription(server, service, event, false);
}

void TransportBinding::add_subscriber(someip::ServiceId service, someip::EventId event,
                                      const net::Endpoint& subscriber) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  auto& list = subscribers_[{service, event}];
  if (std::find(list.begin(), list.end(), subscriber) == list.end()) {
    list.push_back(subscriber);
  }
}

void TransportBinding::remove_subscriber(someip::ServiceId service, someip::EventId event,
                                         const net::Endpoint& subscriber) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  auto& list = subscribers_[{service, event}];
  const auto it = std::find(list.begin(), list.end(), subscriber);
  if (it != list.end()) {
    list.erase(it);
  }
}

void TransportBinding::provide_method(someip::ServiceId service, someip::MethodId method,
                                      RequestHandler handler) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_[{service, method}] = std::move(handler);
}

void TransportBinding::remove_method(someip::ServiceId service, someip::MethodId method) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_.erase({service, method});
}

void TransportBinding::respond(const someip::Message& request, const net::Endpoint& to,
                               std::vector<std::uint8_t> payload,
                               someip::ReturnCode return_code) {
  someip::Message message;
  message.service = request.service;
  message.method = request.method;
  message.client = request.client;
  message.session = request.session;
  message.type = return_code == someip::ReturnCode::kOk ? someip::MessageType::kResponse
                                                        : someip::MessageType::kError;
  message.return_code = return_code;
  message.payload = std::move(payload);
  send_message(to, std::move(message));
}

template <typename SetPayload>
void TransportBinding::fan_out(someip::ServiceId service, someip::EventId event,
                               SetPayload set_payload) {
  // Snapshot the subscriber set into a fixed inline array: copying the
  // subscriber vector would be a per-notification allocation. Fan-outs
  // wider than the inline capacity fall back to a heap snapshot.
  constexpr std::size_t kInlineSubscribers = 8;
  net::Endpoint inline_subscribers[kInlineSubscribers];
  std::vector<net::Endpoint> overflow_subscribers;
  const net::Endpoint* subscribers = inline_subscribers;
  std::size_t count = 0;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = subscribers_.find({service, event});
    if (it != subscribers_.end()) {
      count = it->second.size();
      if (count <= kInlineSubscribers) {
        std::copy(it->second.begin(), it->second.end(), inline_subscribers);
      } else {
        overflow_subscribers = it->second;
        subscribers = overflow_subscribers.data();
      }
    }
    ++stats_.notifications_sent;
  }
  // The tag (if any) must reach every subscriber; collect once and re-arm
  // for each send.
  const std::optional<someip::WireTag> tag = send_bypass_.collect();
  for (std::size_t i = 0; i < count; ++i) {
    if (tag.has_value()) {
      send_bypass_.deposit(*tag);
    }
    someip::Message message;
    message.service = service;
    message.method = event;
    message.client = client_id_;
    message.type = someip::MessageType::kNotification;
    set_payload(message, i + 1 == count);
    send_message(subscribers[i], std::move(message));
  }
}

void TransportBinding::notify(someip::ServiceId service, someip::EventId event,
                              std::vector<std::uint8_t> payload) {
  fan_out(service, event, [&payload](someip::Message& message, bool last) {
    if (last) {
      message.payload = std::move(payload);
    } else {
      message.payload = common::BufferPool::instance().acquire_copy(payload);
    }
  });
  // No subscriber took the payload; recycle it (a moved-from vector is a
  // no-op for the pool).
  common::BufferPool::instance().release(std::move(payload));
}

void TransportBinding::notify_loaned(someip::ServiceId service, someip::EventId event,
                                     common::LoanedBuffer payload) {
  if (!payload) {
    return;
  }
  // Handle retain, not byte copy; the last message moves the handle.
  fan_out(service, event, [&payload](someip::Message& message, bool last) {
    if (last) {
      message.loaned = std::move(payload);
    } else {
      message.loaned = payload;
    }
  });
}

std::size_t TransportBinding::subscriber_count(someip::ServiceId service,
                                               someip::EventId event) const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  const auto it = subscribers_.find({service, event});
  return it == subscribers_.end() ? 0 : it->second.size();
}

void TransportBinding::receive(const someip::Message& message, const net::Endpoint& from) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_received_;
  }
  // Injected crash, receive side: a down victim does not process tagged
  // traffic either (messages already in flight at crash time die here).
  if (crash_drops(message)) {
    return;
  }
  if (message.tag.has_value()) {
    {
      const std::lock_guard<common::OwnerMutex> lock(mutex_);
      ++stats_.tagged_received;
    }
    // Figure 3, steps 7 and 18: deposit the received tag before invoking
    // the handler.
    receive_bypass_.deposit(*message.tag);
  }

  if (message.is_request()) {
    handle_request(message, from);
  } else if (message.is_response()) {
    handle_response(message);
  } else if (message.is_notification()) {
    handle_notification(message);
  }

  // A tag the handler did not collect is stale; clear it so it cannot be
  // mis-associated with the next untagged message.
  (void)receive_bypass_.collect();
}

bool TransportBinding::admit_request(const someip::Message& /*request*/,
                                     const net::Endpoint& /*from*/) {
  return true;
}

void TransportBinding::handle_request(const someip::Message& message, const net::Endpoint& from) {
  if (!admit_request(message, from)) {
    return;
  }
  RequestHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = methods_.find({message.service, message.method});
    if (it != methods_.end()) {
      handler = it->second;
    }
  }
  // Per-call fault die (after admission, so a duplicated datagram cannot
  // double-count): a pure function of (fault_seed, client, session), hence
  // identical across transports and worker counts.
  if (fault_plan_ != nullptr && message.type == someip::MessageType::kRequest &&
      message.session != 0) {
    switch (fault_plan_->call_fault(message.client, message.session)) {
      case ft::FaultPlan::CallFault::kOmission:
        return;  // swallowed: the client's timeout is the only signal
      case ft::FaultPlan::CallFault::kError:
        respond(message, from, {}, someip::ReturnCode::kNotOk);
        return;
      case ft::FaultPlan::CallFault::kNone:
        break;
    }
  }
  if (!handler) {
    if (message.type == someip::MessageType::kRequest) {
      respond(message, from, {}, someip::ReturnCode::kUnknownMethod);
    }
    return;
  }
  handler(message, from);
}

void TransportBinding::handle_response(const someip::Message& message) {
  ResponseHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = pending_.find(message.session);
    if (it == pending_.end()) {
      return;  // late response after timeout, or duplicate
    }
    handler = std::move(it->second);
    pending_.erase(it);
    ++stats_.responses_received;
  }
  handler(message);
}

void TransportBinding::handle_notification(const someip::Message& message) {
  NotificationHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it =
        event_handlers_.find({message.service, static_cast<someip::EventId>(message.method)});
    if (it == event_handlers_.end()) {
      return;
    }
    handler = it->second;
    ++stats_.notifications_received;
  }
  handler(message);
}

void TransportBinding::count_malformed() {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  ++stats_.malformed_received;
}

TransportStats TransportBinding::stats() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return stats_;
}

}  // namespace dear::ara::com
