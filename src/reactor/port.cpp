#include "reactor/port.hpp"

#include <stdexcept>

#include "reactor/environment.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

BasePort::BasePort(Name name, PortDirection direction, Reactor& container)
    : Element(name, &container, container.environment()), direction_(direction) {
  container.register_port(this);
}

void BasePort::bind_to(BasePort* sink) {
  if (sink->inward_ != nullptr) {
    throw std::logic_error("port already has an inward binding: " + std::string(sink->fqn()));
  }
  if (sink == this) {
    throw std::logic_error("cannot connect a port to itself: " + std::string(fqn()));
  }
  sink->inward_ = this;
  Wiring wiring;
  wiring.kind = Wiring::Kind::kConnect;
  wiring.port = this;
  wiring.sink = sink;
  environment().record_wiring(wiring);
}

void BasePort::signal_presence() {
  present_ = true;  // set() is only legal on binding sources
  Scheduler& scheduler = environment().scheduler();
  scheduler.stage_port_triggers(*this);
  scheduler.register_set_port(*this);
}

}  // namespace dear::reactor
