#include "reactor/port.hpp"

#include <stdexcept>

#include "reactor/environment.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

BasePort::BasePort(std::string name, PortDirection direction, Reactor* container,
                   Environment& environment)
    : Element(std::move(name), container, environment), direction_(direction) {
  if (container != nullptr) {
    container->register_port(this);
  }
}

void BasePort::bind_to(BasePort* sink) {
  if (sink->inward_ != nullptr) {
    throw std::logic_error("port already has an inward binding: " + sink->fqn());
  }
  if (sink == this) {
    throw std::logic_error("cannot connect a port to itself: " + fqn());
  }
  sink->inward_ = this;
  outward_.push_back(sink);
}

void BasePort::signal_presence() {
  present_ = true;  // set() is only legal on binding sources
  Scheduler& scheduler = environment().scheduler();
  scheduler.stage_port_triggers(*this);
  scheduler.register_set_port(*this);
}

}  // namespace dear::reactor
