// Backend selection for the ara::com runtime.
//
// A Runtime owns one backend per BackendKind in a BindingRegistry and a
// DeploymentConfig mapping service instances to kinds. Deployment is a
// per-process decision (which transport reaches a given instance from
// *here*), mirroring how AUTOSAR deployment manifests bind a required or
// provided service instance to a network binding. Proxies and skeletons
// resolve their transport once, at construction, via
// Runtime::binding_for(); an instance whose configured backend is not
// attached resolves to nothing, which the typed layer surfaces as
// ComErrc::kNetworkBindingFailure.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "ara/com/transport_binding.hpp"
#include "ara/types.hpp"

namespace dear::ara::com {

enum class BackendKind : std::uint8_t {
  /// SOME/IP over a datagram network (SomeIpBinding).
  kSomeIp = 0,
  /// Zero-copy intra-process transport (LocalBinding).
  kLocal = 1,
};

[[nodiscard]] constexpr const char* to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kSomeIp:
      return "someip";
    case BackendKind::kLocal:
      return "local";
  }
  return "?";
}

/// Per-process transport selection: a default kind plus per-instance
/// overrides.
struct DeploymentConfig {
  BackendKind default_backend{BackendKind::kSomeIp};
  std::map<InstanceIdentifier, BackendKind> instance_backends;

  [[nodiscard]] BackendKind backend_for(const InstanceIdentifier& instance) const {
    const auto it = instance_backends.find(instance);
    return it == instance_backends.end() ? default_backend : it->second;
  }
};

/// Owns the attached backends, keyed by kind.
class BindingRegistry {
 public:
  BindingRegistry() = default;
  BindingRegistry(const BindingRegistry&) = delete;
  BindingRegistry& operator=(const BindingRegistry&) = delete;

  /// Attaches the backend for `kind`; returns it. Throws std::logic_error
  /// when `kind` already has a backend: proxies/skeletons hold raw
  /// pointers resolved at construction, so replacement would dangle them.
  TransportBinding& attach(BackendKind kind, std::unique_ptr<TransportBinding> binding);

  /// The backend for `kind`, or nullptr when none is attached.
  [[nodiscard]] TransportBinding* find(BackendKind kind) const noexcept;

  [[nodiscard]] bool has(BackendKind kind) const noexcept { return find(kind) != nullptr; }
  [[nodiscard]] std::size_t size() const noexcept;

  /// Applies `fn` to every attached backend, in BackendKind order
  /// (process-wide configuration, e.g. installing a fault-injection plan).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& backend : backends_) {
      if (backend != nullptr) {
        fn(*backend);
      }
    }
  }

 private:
  /// One slot per BackendKind, indexed by its value.
  std::array<std::unique_ptr<TransportBinding>, 2> backends_;
};

}  // namespace dear::ara::com
