#include "reactor/element.hpp"

#include "reactor/environment.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Element::Element(std::string name, Reactor* container, Environment& environment)
    : name_(std::move(name)), container_(container), environment_(environment) {
  // The container's Element base is fully constructed before any of its
  // members, so its cached fqn is ready here.
  if (container_ == nullptr) {
    fqn_ = name_;
  } else {
    const std::string& prefix = container_->fqn();
    fqn_.reserve(prefix.size() + 1 + name_.size());
    fqn_.append(prefix).append(1, '.').append(name_);
  }
  if (environment_.wiring_frozen()) {
    Environment::throw_wiring_frozen("new element", fqn_);
  }
}

}  // namespace dear::reactor
