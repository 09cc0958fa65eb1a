// Field transactor bundles (paper §III.B).
//
// "Since fields are composed of a get method, a set method and an event,
// interaction with fields requires the use of one event and two method
// transactors." These bundles aggregate exactly those transactors; the
// ara-side pieces (two methods + one notifier event) are grouped in
// FieldServerParts / FieldClientParts so a service skeleton or proxy can
// declare a DEAR-managed field in one line.
#pragma once

#include <string_view>

#include "ara/field.hpp"
#include "dear/event_transactors.hpp"
#include "dear/method_transactors.hpp"

namespace dear::transact {

/// ara-side pieces of a field on the server (raw methods + event; state
/// and get/set semantics live in the server logic reactor, which is what
/// makes the field deterministic).
template <typename T>
struct FieldServerParts {
  FieldServerParts(ara::ServiceSkeleton& skeleton, ara::FieldIds ids)
      : get(skeleton, ids.get), set(skeleton, ids.set), notifier(skeleton, ids.notify) {}

  ara::SkeletonMethod<T, reactor::Empty> get;
  ara::SkeletonMethod<T, T> set;
  ara::SkeletonEvent<T> notifier;
};

/// ara-side pieces of a field on the client.
template <typename T>
struct FieldClientParts {
  FieldClientParts(ara::ServiceProxy& proxy, ara::FieldIds ids)
      : get(proxy, ids.get), set(proxy, ids.set), notifier(proxy, ids.notify) {}

  ara::ProxyMethod<T, reactor::Empty> get;
  ara::ProxyMethod<T, T> set;
  ara::ProxyEvent<T> notifier;
};

/// Server-side bundle: wire the server logic reactor to the exposed ports.
/// The logic owns the field state: it reacts to get_request/set_request
/// and answers on get_response/set_response; updates flow into notify_in.
template <typename T>
class ServerFieldTransactor {
 public:
  /// The member transactors are named "<name>.get", "<name>.set" and
  /// "<name>.notify".
  ServerFieldTransactor(std::string_view name, reactor::Environment& environment,
                        FieldServerParts<T>& parts, ara::com::TransportBinding& binding,
                        TransactorConfig config)
      : get({name, "get"}, environment, parts.get, binding, config),
        set({name, "set"}, environment, parts.set, binding, config),
        notify({name, "notify"}, environment, parts.notifier, binding, config) {}

  ServerMethodTransactor<reactor::Empty, T> get;
  ServerMethodTransactor<T, T> set;
  ServerEventTransactor<T> notify;

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return get.total_errors() + set.total_errors() + notify.total_errors();
  }
};

/// Client-side bundle.
template <typename T>
class ClientFieldTransactor {
 public:
  /// The member transactors are named "<name>.get", "<name>.set" and
  /// "<name>.notify".
  ClientFieldTransactor(std::string_view name, reactor::Environment& environment,
                        FieldClientParts<T>& parts, ara::com::TransportBinding& binding,
                        TransactorConfig config)
      : get({name, "get"}, environment, parts.get, binding, config),
        set({name, "set"}, environment, parts.set, binding, config),
        notify({name, "notify"}, environment, parts.notifier, binding, config) {}

  ClientMethodTransactor<reactor::Empty, T> get;
  ClientMethodTransactor<T, T> set;
  ClientEventTransactor<T> notify;

  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return get.total_errors() + set.total_errors() + notify.total_errors();
  }
};

}  // namespace dear::transact
