// Umbrella header for the reactor runtime — include this from application
// code. Also hosts the action template method definitions, which need the
// full Scheduler interface.
#pragma once

#include <algorithm>

#include "reactor/action.hpp"
#include "reactor/delay.hpp"
#include "reactor/environment.hpp"
#include "reactor/physical_clock.hpp"
#include "reactor/port.hpp"
#include "reactor/reaction.hpp"
#include "reactor/reactor.hpp"
#include "reactor/scheduler.hpp"
#include "reactor/sim_driver.hpp"
#include "reactor/tag.hpp"
#include "reactor/trace.hpp"

namespace dear::reactor {

template <typename T>
void Environment::connect_delayed(Port<T>& from, Port<T>& to, Duration delay) {
  if (wiring_frozen()) {
    throw_wiring_frozen("connect_delayed",
                        std::string(from.fqn()).append(" -> ").append(to.fqn()));
  }
  auto relay = std::make_unique<DelayRelay<T>>("_delay" + std::to_string(relay_counter_++),
                                               *this, delay);
  connect(from, relay->in);
  connect(relay->out, to);
  owned_relays_.push_back(std::move(relay));
}

template <typename T>
void LogicalAction<T>::schedule(ImmutableValuePtr<T> value, Duration delay) {
  Scheduler& scheduler = this->environment().scheduler();
  scheduler.with_lock([&] {
    const Tag tag = scheduler.current_tag().delay(this->min_delay() + delay);
    this->pending_[tag] = std::move(value);
    scheduler.enqueue_locked(this, tag);
  });
  scheduler.notify();
}

template <typename T>
void PhysicalAction<T>::schedule(ImmutableValuePtr<T> value, Duration delay) {
  Scheduler& scheduler = this->environment().scheduler();
  const TimePoint physical_now = this->environment().clock().now();
  scheduler.with_lock([&] {
    Tag tag{physical_now + this->min_delay() + delay, 0};
    // Physical actions may never be tagged at or before the current tag.
    if (tag <= scheduler.current_tag()) {
      tag = scheduler.current_tag().delay(0);
    }
    this->pending_[tag] = std::move(value);
    scheduler.enqueue_locked(this, tag);
  });
  scheduler.notify();
}

template <typename T>
bool PhysicalAction<T>::schedule_at(const Tag& tag, ImmutableValuePtr<T> value) {
  Scheduler& scheduler = this->environment().scheduler();
  const bool accepted = scheduler.with_lock([&] {
    if (tag <= scheduler.current_tag()) {
      return false;  // tardy: the logical position has already been passed
    }
    this->pending_[tag] = std::move(value);
    scheduler.enqueue_locked(this, tag);
    return true;
  });
  if (accepted) {
    scheduler.notify();
  }
  return accepted;
}

}  // namespace dear::reactor
