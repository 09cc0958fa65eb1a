#include "sim/kernel.hpp"

#include <utility>

namespace dear::sim {

EventId Kernel::schedule_at(TimePoint time, Handler handler, int priority) {
  const EventId id = next_id_++;
  queue_.push(Event{time < now_ ? now_ : time, priority, id, std::move(handler)});
  return id;
}

EventId Kernel::schedule_after(Duration delay, Handler handler, int priority) {
  return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(handler), priority);
}

bool Kernel::cancel(EventId id) {
  // Only a queued event can be cancelled; it leaves the queue at once, so
  // an event that already ran (or was cancelled) is simply not found.
  return queue_.erase_first_if([id](const Event& event) { return event.id == id; });
}

bool Kernel::step() {
  if (queue_.empty()) {
    return false;
  }
  // Move the event out before running it so the handler may schedule new
  // events.
  Event event = queue_.pop_move();
  now_ = event.time;
  ++processed_;
  event.handler();
  return true;
}

std::uint64_t Kernel::run() {
  std::uint64_t count = 0;
  while (!stopped_ && step()) {
    ++count;
  }
  return count;
}

std::uint64_t Kernel::run_until(TimePoint horizon) {
  std::uint64_t count = 0;
  while (!stopped_) {
    if (queue_.empty() || queue_.top().time > horizon) {
      break;
    }
    step();
    ++count;
  }
  if (!stopped_ && now_ < horizon) {
    now_ = horizon;
  }
  return count;
}

TimePoint Kernel::next_event_time() const {
  return queue_.empty() ? kTimeMax : queue_.top().time;
}

bool Kernel::empty() const { return queue_.empty(); }

}  // namespace dear::sim
