#include "ara/com/local_binding.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "ft/fault_model.hpp"

namespace dear::ara::com {

namespace {
constexpr std::string_view kLogComponent = "ara.com.local";
}

// --- LocalHub ----------------------------------------------------------------

LocalBinding* LocalHub::find(const net::Endpoint& endpoint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = bindings_.find(endpoint);
  return it == bindings_.end() ? nullptr : it->second;
}

std::size_t LocalHub::binding_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bindings_.size();
}

std::uint64_t LocalHub::undeliverable() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return undeliverable_;
}

void LocalHub::attach(LocalBinding* binding) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bindings_[binding->endpoint()] = binding;
}

void LocalHub::detach(const net::Endpoint& endpoint) {
  const std::lock_guard<std::mutex> lock(mutex_);
  bindings_.erase(endpoint);
}

void LocalHub::count_undeliverable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++undeliverable_;
}

// --- LocalBinding ------------------------------------------------------------

LocalBinding::LocalBinding(LocalHub& hub, common::Executor& executor, net::Endpoint self,
                           someip::ClientId client_id)
    : hub_(hub), executor_(executor), self_(self), client_id_(client_id) {
  if (executor_.single_threaded()) {
    // A DES executor: the kernel thread is the only one that delivers to,
    // drains or times out on this binding. The hub stays locked (shared).
    mutex_.claim_single_owner();
    receive_mutex_.claim_single_owner();
    send_bypass_.claim_single_owner();
    receive_bypass_.claim_single_owner();
  }
  hub_.attach(this);
}

LocalBinding::~LocalBinding() {
  hub_.detach(self_);
  // Lifetime totals flush into the metrics registry; the hot paths keep
  // their plain member counters under the locks they already take.
  obs::count(obs::Counter::kLocalMsgsSent, msgs_sent_);
  obs::count(obs::Counter::kLocalMsgsReceived, msgs_received_);
  obs::count(obs::Counter::kLocalTaggedSent, tagged_sent_);
  obs::count(obs::Counter::kLocalTaggedReceived, tagged_received_);
  obs::count(obs::Counter::kLocalTimeouts, timeouts_);
}

void LocalBinding::send_frame(const net::Endpoint& destination, someip::Message message) {
  // Same contract as the wire path: pick up a pending tag from the bypass
  // and carry it — here in-band on the message, no trailer codec.
  message.tag = send_bypass_.collect();
  // Injected crash: while the victim node is down, its tagged traffic dies
  // at the binding exactly as if the process were gone. Untagged control
  // traffic passes, so peers keep their subscription state (warm restart).
  if (fault_plan_ != nullptr && message.tag.has_value() && fault_plan_->crashes(self_) &&
      fault_plan_->down_at(message.tag->time)) {
    fault_plan_->crash_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_sent_;
    if (message.tag.has_value()) {
      ++tagged_sent_;
    }
  }
  LocalBinding* peer = hub_.find(destination);
  if (peer == nullptr) {
    hub_.count_undeliverable();
    DEAR_LOG_WARN(kLogComponent) << self_.to_string() << ": no local binding at "
                                 << destination.to_string() << "; dropping message";
    return;
  }
  peer->deliver(Frame{std::move(message), self_});
}

someip::SessionId LocalBinding::call(const net::Endpoint& server, someip::ServiceId service,
                                     someip::MethodId method, std::vector<std::uint8_t> payload,
                                     ResponseHandler on_response, Duration timeout) {
  someip::SessionId session = 0;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    session = next_session_++;
    if (next_session_ == 0) {
      next_session_ = 1;  // session id 0 is reserved
    }
    pending_[session] = std::move(on_response);
    ++requests_sent_;
  }

  someip::Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = session;
  message.type = someip::MessageType::kRequest;
  message.payload = std::move(payload);
  send_frame(server, std::move(message));

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

void LocalBinding::call_no_return(const net::Endpoint& server, someip::ServiceId service,
                                  someip::MethodId method, std::vector<std::uint8_t> payload) {
  someip::Message message;
  message.service = service;
  message.method = method;
  message.client = client_id_;
  message.session = 0;
  message.type = someip::MessageType::kRequestNoReturn;
  message.payload = std::move(payload);
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++requests_sent_;
  }
  send_frame(server, std::move(message));
}

void LocalBinding::subscribe(const net::Endpoint& server, someip::ServiceId service,
                             someip::EventId event, NotificationHandler handler) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_[{service, event}] = std::move(handler);
  }
  // In-process subscription management needs no control protocol: register
  // directly with the serving binding.
  LocalBinding* peer = hub_.find(server);
  if (peer == nullptr) {
    hub_.count_undeliverable();
    return;
  }
  peer->add_subscriber(service, event, self_);
}

void LocalBinding::unsubscribe(const net::Endpoint& server, someip::ServiceId service,
                               someip::EventId event) {
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    event_handlers_.erase({service, event});
  }
  LocalBinding* peer = hub_.find(server);
  if (peer == nullptr) {
    return;
  }
  peer->remove_subscriber(service, event, self_);
}

void LocalBinding::add_subscriber(someip::ServiceId service, someip::EventId event,
                                  const net::Endpoint& subscriber) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  auto& list = subscribers_[{service, event}];
  if (std::find(list.begin(), list.end(), subscriber) == list.end()) {
    list.push_back(subscriber);
  }
}

void LocalBinding::remove_subscriber(someip::ServiceId service, someip::EventId event,
                                     const net::Endpoint& subscriber) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  auto& list = subscribers_[{service, event}];
  const auto it = std::find(list.begin(), list.end(), subscriber);
  if (it != list.end()) {
    list.erase(it);
  }
}

void LocalBinding::provide_method(someip::ServiceId service, someip::MethodId method,
                                  RequestHandler handler) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_[{service, method}] = std::move(handler);
}

void LocalBinding::remove_method(someip::ServiceId service, someip::MethodId method) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  methods_.erase({service, method});
}

void LocalBinding::respond(const someip::Message& request, const net::Endpoint& to,
                           std::vector<std::uint8_t> payload, someip::ReturnCode return_code) {
  someip::Message message;
  message.service = request.service;
  message.method = request.method;
  message.client = request.client;
  message.session = request.session;
  message.type = return_code == someip::ReturnCode::kOk ? someip::MessageType::kResponse
                                                        : someip::MessageType::kError;
  message.return_code = return_code;
  message.payload = std::move(payload);
  send_frame(to, std::move(message));
}

void LocalBinding::notify(someip::ServiceId service, someip::EventId event,
                          std::vector<std::uint8_t> payload) {
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
  // for each send. The payload is moved into the final send.
  const std::optional<someip::WireTag> tag = send_bypass_.collect();
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    if (tag.has_value()) {
      send_bypass_.deposit(*tag);
    }
    someip::Message message;
    message.service = service;
    message.method = event;
    message.client = client_id_;
    message.type = someip::MessageType::kNotification;
    if (i + 1 == subscribers.size()) {
      message.payload = std::move(payload);
    } else {
      message.payload = payload;
    }
    send_frame(subscribers[i], std::move(message));
  }
}

void LocalBinding::notify_loaned(someip::ServiceId service, someip::EventId event,
                                 common::LoanedBuffer payload) {
  if (!payload) {
    return;
  }
  // Snapshot the subscriber set into a fixed inline array — the general
  // notify() copies the subscriber vector per call, which would be a
  // per-frame allocation on the data plane's steady state. Fan-outs wider
  // than the inline capacity fall back to a heap snapshot.
  constexpr std::size_t kInlineSubscribers = 8;
  net::Endpoint inline_subscribers[kInlineSubscribers];
  std::vector<net::Endpoint> overflow_subscribers;
  const net::Endpoint* subscribers = inline_subscribers;
  std::size_t count = 0;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = subscribers_.find({service, event});
    if (it != subscribers_.end()) {
      if (it->second.size() <= kInlineSubscribers) {
        count = it->second.size();
        std::copy(it->second.begin(), it->second.end(), inline_subscribers);
      } else {
        overflow_subscribers = it->second;
        subscribers = overflow_subscribers.data();
        count = overflow_subscribers.size();
      }
    }
    ++notifications_sent_;
  }
  // The tag (if any) must reach every subscriber; collect once and re-arm
  // for each send. The slab is never copied: each message carries a
  // refcount retain on the same storage, the last one moves the handle.
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
    if (i + 1 == count) {
      message.loaned = std::move(payload);
    } else {
      message.loaned = payload;
    }
    send_frame(subscribers[i], std::move(message));
  }
}

std::size_t LocalBinding::subscriber_count(someip::ServiceId service, someip::EventId event) const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  const auto it = subscribers_.find({service, event});
  return it == subscribers_.end() ? 0 : it->second.size();
}

void LocalBinding::deliver(Frame frame) {
  inbox_.push(std::move(frame));
  if (pumping_thread_.load(std::memory_order_acquire) == std::this_thread::get_id()) {
    // A handler on this thread sent to its own binding: the active drain
    // loop above us picks the frame up once the current handler returns.
    return;
  }
  pump();
}

void LocalBinding::pump() {
  // Never *block* on the drain lock from a delivery: the sender may be
  // inside another binding's drain loop, and two bindings delivering to
  // each other from two threads would deadlock on each other's locks.
  // Under contention the drain is handed to the executor instead (which
  // holds no drain lock when it runs, so blocking there is safe).
  if (!receive_mutex_.try_lock()) {
    // Every contended deliver posts a drain, so no frame can strand: it is
    // picked up either by the current lock holder or by this task.
    executor_.post([this] {
      const std::lock_guard<common::OwnerMutex> lock(receive_mutex_);
      drain_locked();
    });
    return;
  }
  const std::lock_guard<common::OwnerMutex> lock(receive_mutex_, std::adopt_lock);
  drain_locked();
}

void LocalBinding::drain_locked() {
  pumping_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  while (auto frame = inbox_.pop()) {
    process(*frame);
  }
  pumping_thread_.store(std::thread::id{}, std::memory_order_release);
}

void LocalBinding::process(Frame& frame) {
  someip::Message& message = frame.message;
  // Injected crash, receive side: a down victim does not process tagged
  // traffic either (messages already in flight at crash time die here).
  if (fault_plan_ != nullptr && message.tag.has_value() && fault_plan_->crashes(self_) &&
      fault_plan_->down_at(message.tag->time)) {
    fault_plan_->crash_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    ++msgs_received_;
    if (message.tag.has_value()) {
      ++tagged_received_;
    }
  }
  if (message.tag.has_value()) {
    // Same pairing as the wire path: deposit before invoking the handler.
    receive_bypass_.deposit(*message.tag);
  }

  if (message.is_request()) {
    handle_request(message, frame.from);
  } else if (message.is_response()) {
    handle_response(message);
  } else if (message.is_notification()) {
    handle_notification(message);
  }

  // A tag the handler did not collect is stale; clear it so it cannot be
  // mis-associated with the next untagged message.
  (void)receive_bypass_.collect();
}

void LocalBinding::handle_request(const someip::Message& message, const net::Endpoint& from) {
  // Per-call fault die: a pure function of (fault_seed, client, session),
  // hence identical across transports and worker counts. The local path
  // never duplicates frames, so no dedup guard is needed.
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
  RequestHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it = methods_.find({message.service, message.method});
    if (it != methods_.end()) {
      handler = it->second;
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

void LocalBinding::handle_response(const someip::Message& message) {
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

void LocalBinding::handle_notification(const someip::Message& message) {
  NotificationHandler handler;
  {
    const std::lock_guard<common::OwnerMutex> lock(mutex_);
    const auto it =
        event_handlers_.find({message.service, static_cast<someip::EventId>(message.method)});
    if (it == event_handlers_.end()) {
      return;
    }
    handler = it->second;
    ++notifications_received_;
  }
  handler(message);
}

void LocalBinding::attach_send_tag(const someip::WireTag& tag) { send_bypass_.deposit(tag); }

std::optional<someip::WireTag> LocalBinding::collect_received_tag() {
  return receive_bypass_.collect();
}

bool LocalBinding::received_tag_armed() const { return receive_bypass_.armed(); }

std::optional<someip::WireTag> LocalBinding::peek_send_tag() const { return send_bypass_.peek(); }

TransportStats LocalBinding::stats() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  TransportStats stats;
  stats.requests_sent = requests_sent_;
  stats.responses_received = responses_received_;
  stats.notifications_sent = notifications_sent_;
  stats.notifications_received = notifications_received_;
  stats.tagged_sent = tagged_sent_;
  stats.tagged_received = tagged_received_;
  stats.timeouts = timeouts_;
  return stats;
}

}  // namespace dear::ara::com
