#include "reactor/reaction.hpp"

#include "reactor/action.hpp"
#include "reactor/environment.hpp"
#include "reactor/port.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Reaction::Reaction(Name name, int priority, Reactor* container, Body body)
    : Element(name, container, container->environment()), body_(std::move(body)),
      priority_(priority) {}

Reaction& Reaction::declare(std::string_view what, Wiring wiring) {
  if (environment().wiring_frozen()) {
    Environment::throw_wiring_frozen(what, fqn());
  }
  wiring.reaction = this;
  environment().record_wiring(wiring);
  return *this;
}

Reaction& Reaction::triggered_by(BasePort& port) {
  return declare("triggered_by", Wiring{.kind = Wiring::Kind::kTrigger, .port = &port});
}

Reaction& Reaction::triggered_by(BaseAction& action) {
  return declare("triggered_by", Wiring{.kind = Wiring::Kind::kActionTrigger, .action = &action});
}

Reaction& Reaction::reads(BasePort& port) {
  return declare("reads", Wiring{.kind = Wiring::Kind::kRead, .port = &port});
}

Reaction& Reaction::writes(BasePort& port) {
  return declare("writes", Wiring{.kind = Wiring::Kind::kWrite, .port = &port});
}

Reaction& Reaction::with_deadline(Duration deadline, Body handler) {
  deadline_ = deadline;
  deadline_handler_ = std::move(handler);
  return *this;
}

Reaction& Reaction::reads_state(std::string_view name) {
  return declare("reads_state", Wiring{.kind = Wiring::Kind::kStateRead,
                                       .state = environment().store_name(name)});
}

Reaction& Reaction::writes_state(std::string_view name) {
  return declare("writes_state", Wiring{.kind = Wiring::Kind::kStateWrite,
                                        .state = environment().store_name(name)});
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
