#include "reactor/reactor.hpp"

#include <new>

#include "reactor/environment.hpp"

namespace dear::reactor {

Reactor::Reactor(Name name, Environment& environment) : Element(name, nullptr, environment) {
  environment.register_top_level(this);
}

Reactor::Reactor(Name name, Reactor* parent) : Element(name, parent, parent->environment()) {
  parent->register_child(this);
}

Reactor::~Reactor() {
  for (auto it = reactions_.begin(); it != reactions_.end();) {
    Reaction* reaction = *it++;  // step past it before it is destroyed
    reaction->~Reaction();
  }
}

Reaction& Reactor::add_reaction(Name name, Reaction::Body body) {
  const int priority = static_cast<int>(reactions_.size());
  void* storage = environment().arena().allocate(sizeof(Reaction), alignof(Reaction));
  auto* reaction = new (storage) Reaction(name, priority, this, std::move(body));
  reactions_.push_back(reaction);
  return *reaction;
}

const Tag& Reactor::current_tag() const {
  return environment().scheduler().current_tag();
}

TimePoint Reactor::logical_time() const { return current_tag().time; }

Duration Reactor::elapsed_logical_time() const {
  return logical_time() - environment().scheduler().start_tag().time;
}

TimePoint Reactor::physical_time() const { return environment().clock().now(); }

void Reactor::request_shutdown() const { environment().request_shutdown(); }

}  // namespace dear::reactor
