#include "ara/com/local_binding.hpp"

#include <stdexcept>
#include <utility>

#include "common/logging.hpp"

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
  if (!bindings_.emplace(binding->endpoint(), binding).second) {
    throw std::logic_error("LocalHub: endpoint " + binding->endpoint().to_string() +
                           " is already bound");
  }
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
    : TransportBinding(executor, self, client_id,
                       {obs::Counter::kLocalMsgsSent, obs::Counter::kLocalMsgsReceived,
                        obs::Counter::kLocalTaggedSent, obs::Counter::kLocalTaggedReceived,
                        obs::Counter::kLocalTimeouts}),
      hub_(hub) {
  hub_.attach(this);
}

LocalBinding::~LocalBinding() { hub_.detach(endpoint()); }

void LocalBinding::transmit(const net::Endpoint& destination, someip::Message message) {
  LocalBinding* peer = hub_.find(destination);
  if (peer == nullptr) {
    hub_.count_undeliverable();
    DEAR_LOG_WARN(kLogComponent) << endpoint().to_string() << ": no local binding at "
                                 << destination.to_string() << "; dropping message";
    return;
  }
  peer->deliver(Frame{std::move(message), endpoint()});
}

void LocalBinding::send_subscription(const net::Endpoint& server, someip::ServiceId service,
                                     someip::EventId event, bool subscribe) {
  LocalBinding* peer = hub_.find(server);
  if (peer == nullptr) {
    if (subscribe) {
      hub_.count_undeliverable();
    }
    return;
  }
  if (subscribe) {
    peer->add_subscriber(service, event, endpoint());
  } else {
    peer->remove_subscriber(service, event, endpoint());
  }
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
    receive(frame->message, frame->from);
    // The payload ends its trip here; hand it back for the next send.
    common::BufferPool::instance().release(std::move(frame->message.payload));
  }
  pumping_thread_.store(std::thread::id{}, std::memory_order_release);
}

}  // namespace dear::ara::com
