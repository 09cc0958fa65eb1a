// Descriptor-derived DEAR transactor bundles.
//
// A reactor-based SWC that talks through a service interface needs, per
// member, one ara typed part *and* the matching DEAR transactor (paper
// §III.B). ClientSide<I> and ServerSide<I> derive both from the same
// compile-time ServiceInterface descriptor that generates the proxies and
// skeletons (ara/meta/service_interface.hpp):
//
//   * ClientSide<I> owns a ServiceProxy and, per member: ProxyEvent +
//     ClientEventTransactor, ProxyMethod + ClientMethodTransactor, or
//     FieldClientParts + ClientFieldTransactor.
//   * ServerSide<I> owns a ServiceSkeleton (offered on construction) and,
//     per member: SkeletonEvent + ServerEventTransactor, SkeletonMethod +
//     ServerMethodTransactor, or FieldServerParts + ServerFieldTransactor.
//
// The transactor for a member is accessed through the descriptor constant:
//
//   dear::ServerSide<VideoAdapter> adapter("adapter", env, rt, kInstance, tc);
//   env.connect(logic.out, adapter.tx(VideoAdapter::frame).in);
//
// Note on fields: a ServerSide field member deliberately instantiates the
// *raw* FieldServerParts (no SkeletonField) — field state and get/set
// semantics live in the server logic reactor, which is exactly what makes
// the field deterministic. Wiring both a SkeletonField and a server field
// transactor to the same ids would double-register the get/set methods.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "ara/generated.hpp"
#include "ara/runtime.hpp"
#include "dear/event_transactors.hpp"
#include "dear/field_transactors.hpp"
#include "dear/method_transactors.hpp"

namespace dear::transact {

/// CRTP mixin aggregating the Transactor error counters of anything that
/// exposes `for_each_transactor(f)` — the bundles below and the
/// AppBuilder (app-wide totals) share it.
template <typename Derived>
struct TransactorStats {
  [[nodiscard]] std::uint64_t deadline_violations() const noexcept {
    return sum([](const Transactor& t) { return t.deadline_violations(); });
  }
  [[nodiscard]] std::uint64_t tardy_messages() const noexcept {
    return sum([](const Transactor& t) { return t.tardy_messages(); });
  }
  [[nodiscard]] std::uint64_t untagged_messages() const noexcept {
    return sum([](const Transactor& t) { return t.untagged_messages(); });
  }
  [[nodiscard]] std::uint64_t dropped_messages() const noexcept {
    return sum([](const Transactor& t) { return t.dropped_messages(); });
  }
  [[nodiscard]] std::uint64_t remote_errors() const noexcept {
    return sum([](const Transactor& t) { return t.remote_errors(); });
  }
  [[nodiscard]] std::uint64_t total_errors() const noexcept {
    return sum([](const Transactor& t) { return t.total_errors(); });
  }

 private:
  template <typename F>
  [[nodiscard]] std::uint64_t sum(F&& f) const noexcept {
    std::uint64_t total = 0;
    static_cast<const Derived*>(this)->for_each_transactor(
        [&](const Transactor& t) { total += f(t); });
    return total;
  }
};

namespace detail {

/// Shared construction context handed to every member part. Each
/// member's transactor is named "<prefix>.<member>".
struct BundleContext {
  std::string_view prefix;
  reactor::Environment& environment;
  ara::com::TransportBinding& binding;
  const TransactorConfig& config;
};

// --- client-side parts ----------------------------------------------------------

template <typename M>
struct ClientPart;  // primary template intentionally undefined

template <typename T, someip::EventId Id>
struct ClientPart<ara::meta::Event<T, Id>> {
  ara::ProxyEvent<T> event;
  ClientEventTransactor<T> rx;

  ClientPart(const ara::meta::Event<T, Id>& member, BundleContext& context,
             ara::ServiceProxy& proxy)
      : event(proxy, Id),
        rx({context.prefix, member.name}, context.environment, event, context.binding,
           context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return rx; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(rx);
  }
};

template <typename Req, typename Res, someip::MethodId Id>
struct ClientPart<ara::meta::Method<Req, Res, Id>> {
  ara::ProxyMethod<Res, Req> method;
  ClientMethodTransactor<Req, Res> call;

  ClientPart(const ara::meta::Method<Req, Res, Id>& member, BundleContext& context,
             ara::ServiceProxy& proxy)
      : method(proxy, Id),
        call({context.prefix, member.name}, context.environment, method, context.binding,
             context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return call; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(call);
  }
};

template <typename T, someip::MethodId G, someip::MethodId S, someip::EventId N>
struct ClientPart<ara::meta::Field<T, G, S, N>> {
  FieldClientParts<T> parts;
  ClientFieldTransactor<T> field;

  ClientPart(const ara::meta::Field<T, G, S, N>& member, BundleContext& context,
             ara::ServiceProxy& proxy)
      : parts(proxy, ara::FieldIds{G, S, N}),
        field(context.environment.store_name({context.prefix, member.name}), context.environment,
              parts, context.binding, context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return field; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(field.get);
    f(field.set);
    f(field.notify);
  }
};

// --- server-side parts ----------------------------------------------------------

template <typename M>
struct ServerPart;  // primary template intentionally undefined

template <typename T, someip::EventId Id>
struct ServerPart<ara::meta::Event<T, Id>> {
  ara::SkeletonEvent<T> event;
  ServerEventTransactor<T> tx;

  ServerPart(const ara::meta::Event<T, Id>& member, BundleContext& context,
             ara::ServiceSkeleton& skeleton)
      : event(skeleton, Id),
        tx({context.prefix, member.name}, context.environment, event, context.binding,
           context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return tx; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(tx);
  }
};

template <typename Req, typename Res, someip::MethodId Id>
struct ServerPart<ara::meta::Method<Req, Res, Id>> {
  ara::SkeletonMethod<Res, Req> method;
  ServerMethodTransactor<Req, Res> call;

  ServerPart(const ara::meta::Method<Req, Res, Id>& member, BundleContext& context,
             ara::ServiceSkeleton& skeleton)
      : method(skeleton, Id),
        call({context.prefix, member.name}, context.environment, method, context.binding,
             context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return call; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(call);
  }
};

template <typename T, someip::MethodId G, someip::MethodId S, someip::EventId N>
struct ServerPart<ara::meta::Field<T, G, S, N>> {
  FieldServerParts<T> parts;
  ServerFieldTransactor<T> field;

  ServerPart(const ara::meta::Field<T, G, S, N>& member, BundleContext& context,
             ara::ServiceSkeleton& skeleton)
      : parts(skeleton, ara::FieldIds{G, S, N}),
        field(context.environment.store_name({context.prefix, member.name}), context.environment,
              parts, context.binding, context.config) {}

  [[nodiscard]] auto& transactor() noexcept { return field; }
  template <typename F>
  void each_transactor(F&& f) const {
    f(field.get);
    f(field.set);
    f(field.notify);
  }
};

[[nodiscard]] inline ara::com::TransportBinding& require_binding(ara::Runtime& runtime,
                                                                 ara::InstanceIdentifier instance,
                                                                 const char* interface_name) {
  ara::com::TransportBinding* binding = runtime.binding_for(instance);
  if (binding == nullptr) {
    throw std::logic_error(std::string("no transport backend attached for ") + interface_name +
                           " (" + instance.to_string() + ")");
  }
  return *binding;
}

}  // namespace detail

/// Client-side transactor bundle for interface I: one proxy plus the
/// client transactor(s) for every member, wired to `runtime`'s deployed
/// backend for the instance.
template <ara::meta::ServiceDescriptor I>
class ClientSide : public TransactorStats<ClientSide<I>> {
 public:
  using Interface = I;

  ClientSide(reactor::Name name, reactor::Environment& environment, ara::Runtime& runtime,
             someip::InstanceId instance, net::Endpoint server, TransactorConfig config)
      : name_(environment.store_name(name)),
        config_(config),
        binding_(detail::require_binding(runtime, {I::kInterface.service, instance},
                                         I::kInterface.name)),
        context_{name_, environment, binding_, config_},
        proxy_(runtime, {I::kInterface.service, instance}, server),
        parts_(context_, proxy_) {}

  /// Resolves the server endpoint through service discovery (the service
  /// must already be offered).
  ClientSide(reactor::Name name, reactor::Environment& environment, ara::Runtime& runtime,
             someip::InstanceId instance, TransactorConfig config)
      : ClientSide(name, environment, runtime, instance,
                   resolve(runtime, {I::kInterface.service, instance}), config) {}

  /// The DEAR transactor for a member: ClientEventTransactor (port .out),
  /// ClientMethodTransactor (.request/.response) or ClientFieldTransactor
  /// (.get/.set/.notify).
  template <typename M>
  [[nodiscard]] auto& tx(const M&) noexcept {
    return parts_.template at<ara::meta::index_of<I, M>()>().transactor();
  }

  [[nodiscard]] ara::ServiceProxy& proxy() noexcept { return proxy_; }
  /// A view of the environment's arena: valid while the environment lives.
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] const TransactorConfig& config() const noexcept { return config_; }

  template <typename F>
  void for_each_transactor(F&& f) const {
    parts_.for_each([&](const auto& part) { part.each_transactor(f); });
  }

 private:
  static net::Endpoint resolve(ara::Runtime& runtime, ara::InstanceIdentifier instance) {
    const auto endpoint = runtime.resolve(instance);
    if (!endpoint.has_value()) {
      throw std::logic_error("ClientSide<" + std::string(I::kInterface.name) + ">: " +
                             instance.to_string() +
                             " is not offered (offer all ServerSide bundles first)");
    }
    return *endpoint;
  }

  std::string_view name_;
  TransactorConfig config_;
  ara::com::TransportBinding& binding_;
  detail::BundleContext context_;
  // A plain ServiceProxy, not Proxy<I>: the bundle's member parts own the
  // typed proxy pieces, so a generated proxy would duplicate them.
  ara::ServiceProxy proxy_;
  ara::meta::MemberParts<I, detail::ClientPart> parts_;
};

/// Server-side transactor bundle for interface I: one skeleton (offered on
/// construction) plus the server transactor(s) for every member.
template <ara::meta::ServiceDescriptor I>
class ServerSide : public TransactorStats<ServerSide<I>> {
 public:
  using Interface = I;

  ServerSide(reactor::Name name, reactor::Environment& environment, ara::Runtime& runtime,
             someip::InstanceId instance, TransactorConfig config,
             ara::MethodCallProcessingMode mode = ara::MethodCallProcessingMode::kEvent)
      : name_(environment.store_name(name)),
        config_(config),
        binding_(detail::require_binding(runtime, {I::kInterface.service, instance},
                                         I::kInterface.name)),
        context_{name_, environment, binding_, config_},
        skeleton_(runtime, {I::kInterface.service, instance}, mode),
        parts_(context_, skeleton_) {
    skeleton_.OfferService();
  }

  /// The DEAR transactor for a member: ServerEventTransactor (port .in),
  /// ServerMethodTransactor (.request/.response) or ServerFieldTransactor
  /// (.get/.set/.notify).
  template <typename M>
  [[nodiscard]] auto& tx(const M&) noexcept {
    return parts_.template at<ara::meta::index_of<I, M>()>().transactor();
  }

  [[nodiscard]] ara::ServiceSkeleton& skeleton() noexcept { return skeleton_; }
  /// A view of the environment's arena: valid while the environment lives.
  [[nodiscard]] std::string_view name() const noexcept { return name_; }
  [[nodiscard]] const TransactorConfig& config() const noexcept { return config_; }

  template <typename F>
  void for_each_transactor(F&& f) const {
    parts_.for_each([&](const auto& part) { part.each_transactor(f); });
  }

 private:
  std::string_view name_;
  TransactorConfig config_;
  ara::com::TransportBinding& binding_;
  detail::BundleContext context_;
  ara::ServiceSkeleton skeleton_;
  ara::meta::MemberParts<I, detail::ServerPart> parts_;
};

}  // namespace dear::transact

namespace dear {

// The bundles are the DEAR-framework face of the descriptor API; export
// them at the framework namespace alongside AppBuilder.
template <typename I>
using ClientSide = transact::ClientSide<I>;
template <typename I>
using ServerSide = transact::ServerSide<I>;

}  // namespace dear
