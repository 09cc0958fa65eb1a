#include "reactor/element.hpp"

#include "reactor/environment.hpp"
#include "reactor/reactor.hpp"

namespace dear::reactor {

Element::Element(Name name, Reactor* container, Environment& environment)
    : container_(container), environment_(environment) {
  // The container's Element base is fully constructed before any of its
  // members, so its fqn is ready here.
  if (container_ == nullptr) {
    fqn_ = environment_.store_name(name);
    name_size_ = fqn_.size();
  } else {
    const std::string_view scope = container_->fqn();
    fqn_ = environment_.store_name(scope, name);
    name_size_ = fqn_.size() - scope.size() - 1;
  }
  if (environment_.wiring_frozen()) {
    Environment::throw_wiring_frozen("new element", fqn_);
  }
}

}  // namespace dear::reactor
