#include "reactor/reaction.hpp"

#include "reactor/action.hpp"
#include "reactor/environment.hpp"
#include "reactor/port.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Reaction::Reaction(std::string name, int priority, Reactor* container, Body body)
    : Element(std::move(name), container, container->environment()), body_(std::move(body)),
      priority_(priority) {}

void Reaction::check_wiring_open(std::string_view what) const {
  if (environment().wiring_frozen()) {
    Environment::throw_wiring_frozen(what, fqn());
  }
}

Reaction& Reaction::triggered_by(BasePort& port) {
  check_wiring_open("triggered_by");
  port.add_trigger(this);
  dependencies_.push_back(&port);
  return *this;
}

Reaction& Reaction::triggered_by(BaseAction& action) {
  check_wiring_open("triggered_by");
  action.add_trigger(this);
  action_triggers_.push_back(&action);
  return *this;
}

Reaction& Reaction::reads(BasePort& port) {
  check_wiring_open("reads");
  dependencies_.push_back(&port);
  return *this;
}

Reaction& Reaction::writes(BasePort& port) {
  check_wiring_open("writes");
  port.add_writer(this);
  effects_.push_back(&port);
  return *this;
}

Reaction& Reaction::with_deadline(Duration deadline, Body handler) {
  deadline_ = deadline;
  deadline_handler_ = std::move(handler);
  return *this;
}

Reaction& Reaction::reads_state(std::string name) {
  state_reads_.push_back(std::move(name));
  return *this;
}

Reaction& Reaction::writes_state(std::string name) {
  state_writes_.push_back(std::move(name));
  return *this;
}

void Reaction::execute(const Tag& tag, TimePoint physical_now) {
  ++executions_;
  if (has_deadline() && physical_now > tag.time + deadline_) {
    ++deadline_violations_;
    if (deadline_handler_) {
      deadline_handler_();
    }
    return;  // the deadline handler replaces the body
  }
  body_();
}

}  // namespace dear::reactor
