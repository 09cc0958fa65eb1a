#include "ara/com/binding_registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dear::ara::com {

TransportBinding& BindingRegistry::attach(BackendKind kind,
                                          std::unique_ptr<TransportBinding> binding) {
  auto& slot = backends_[static_cast<std::size_t>(kind)];
  if (slot != nullptr) {
    // Proxies, skeletons and transactors resolve their binding once and
    // keep a raw pointer; destroying an attached backend would leave them
    // dangling. Fail fast instead of replacing silently.
    throw std::logic_error(std::string("BindingRegistry: backend '") + to_string(kind) +
                           "' is already attached; backends cannot be replaced once attached");
  }
  slot = std::move(binding);
  return *slot;
}

TransportBinding* BindingRegistry::find(BackendKind kind) const noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < backends_.size() ? backends_[index].get() : nullptr;
}

std::size_t BindingRegistry::size() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(backends_.begin(), backends_.end(),
                    [](const auto& backend) { return backend != nullptr; }));
}

}  // namespace dear::ara::com
