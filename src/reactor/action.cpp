#include "reactor/action.hpp"

#include "reactor/environment.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

BaseAction::BaseAction(Name name, Reactor& container, Duration min_delay)
    : Element(name, &container, container.environment()), min_delay_(min_delay) {
  container.register_action(this);
}

Timer::Timer(Name name, Reactor* container, Duration period, Duration offset)
    : BaseAction(name, *container), period_(period), offset_(offset) {
  if (period <= 0) {
    throw std::logic_error("timer period must be positive: " + std::string(fqn()));
  }
}

void Timer::arm(const Tag& start_tag) {
  // Requires the scheduler lock (called from Scheduler::start_at).
  environment().scheduler().enqueue_locked(this, Tag{start_tag.time + offset_, 0});
}

void Timer::setup(const Tag& tag) {
  BaseAction::setup(tag);
  // Re-arm the next firing (the scheduler lock is held during setup).
  environment().scheduler().enqueue_locked(this, Tag{tag.time + period_, 0});
}

StartupTrigger::StartupTrigger(Name name, Reactor* container) : BaseAction(name, *container) {}

ShutdownTrigger::ShutdownTrigger(Name name, Reactor* container) : BaseAction(name, *container) {}

}  // namespace dear::reactor
