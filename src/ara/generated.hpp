// Descriptor-derived proxy and skeleton classes.
//
// The paper's "generated" proxy/skeleton classes (paper §II.A) are derived
// here from a compile-time ServiceInterface descriptor instead of being
// written by hand: Proxy<I> and Skeleton<I> instantiate one typed part
// (ProxyEvent/ProxyMethod/ProxyField resp. SkeletonEvent/SkeletonMethod/
// SkeletonField) per member of I's descriptor, with the SOME/IP ids taken
// from the descriptor types. Members are accessed through the descriptor
// constants themselves:
//
//   ara::Skeleton<VideoAdapter> skeleton(runtime, kInstance);
//   skeleton.get(VideoAdapter::frame).Send(frame);
//
//   ara::Proxy<VideoAdapter> proxy(runtime, kInstance, server);
//   proxy.get(VideoAdapter::frame).Subscribe();
//
// get() resolves at compile time (meta::index_of is consteval) and returns
// the exact typed part — the generated classes add zero overhead over the
// handwritten subclassing style, which remains supported for legacy code
// (tests/ara/descriptor_test.cpp checks wire equivalence between the two).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "ara/event.hpp"
#include "ara/field.hpp"
#include "ara/meta/service_interface.hpp"
#include "ara/method.hpp"
#include "ara/proxy.hpp"
#include "ara/skeleton.hpp"

namespace dear::ara {

namespace detail {

// Maps a member descriptor to its proxy-side part. Each part derives from
// the classic typed template so get() hands back the familiar API.

template <typename M>
struct ProxyPart;  // primary template intentionally undefined

template <typename T, someip::EventId Id>
struct ProxyPart<meta::Event<T, Id>> : ProxyEvent<T> {
  ProxyPart(const meta::Event<T, Id>&, ServiceProxy& owner) : ProxyEvent<T>(owner, Id) {}
};

template <typename Req, typename Res, someip::MethodId Id>
struct ProxyPart<meta::Method<Req, Res, Id>> : ProxyMethod<Res, Req> {
  ProxyPart(const meta::Method<Req, Res, Id>&, ServiceProxy& owner)
      : ProxyMethod<Res, Req>(owner, Id) {}
};

template <typename T, someip::MethodId G, someip::MethodId S, someip::EventId N>
struct ProxyPart<meta::Field<T, G, S, N>> : ProxyField<T> {
  ProxyPart(const meta::Field<T, G, S, N>&, ServiceProxy& owner)
      : ProxyField<T>(owner, FieldIds{G, S, N}) {}
};

// Skeleton-side parts.

template <typename M>
struct SkeletonPart;  // primary template intentionally undefined

template <typename T, someip::EventId Id>
struct SkeletonPart<meta::Event<T, Id>> : SkeletonEvent<T> {
  SkeletonPart(const meta::Event<T, Id>&, ServiceSkeleton& owner) : SkeletonEvent<T>(owner, Id) {}
};

template <typename Req, typename Res, someip::MethodId Id>
struct SkeletonPart<meta::Method<Req, Res, Id>> : SkeletonMethod<Res, Req> {
  SkeletonPart(const meta::Method<Req, Res, Id>&, ServiceSkeleton& owner)
      : SkeletonMethod<Res, Req>(owner, Id) {}
};

template <typename T, someip::MethodId G, someip::MethodId S, someip::EventId N>
struct SkeletonPart<meta::Field<T, G, S, N>> : SkeletonField<T> {
  SkeletonPart(const meta::Field<T, G, S, N>&, ServiceSkeleton& owner)
      : SkeletonField<T>(owner, FieldIds{G, S, N}) {}
};

}  // namespace detail

/// Proxy generated from a ServiceInterface descriptor.
template <meta::ServiceDescriptor I>
class Proxy : public ServiceProxy {
 public:
  using Interface = I;

  /// Binds to a resolved server endpoint; the service id comes from the
  /// descriptor, only the instance is a deployment choice.
  Proxy(Runtime& runtime, someip::InstanceId instance, net::Endpoint server)
      : ServiceProxy(runtime, {I::kInterface.service, instance}, server),
        parts_(static_cast<ServiceProxy&>(*this)) {}

  /// InstanceIdentifier overload for ServiceProxy::find compatibility; the
  /// identifier's service id must match the descriptor's.
  Proxy(Runtime& runtime, InstanceIdentifier instance, net::Endpoint server)
      : Proxy(runtime, require_service(instance), server) {}

  /// Resolves the instance via service discovery, or nullopt when the
  /// service is not offered.
  [[nodiscard]] static std::optional<Proxy> find(Runtime& runtime, someip::InstanceId instance) {
    return ServiceProxy::find<Proxy>(runtime, {I::kInterface.service, instance});
  }

  /// The typed part for a member: ProxyEvent, ProxyMethod or ProxyField.
  template <typename M>
  [[nodiscard]] auto& get(const M&) noexcept {
    return parts_.template at<meta::index_of<I, M>()>();
  }
  template <typename M>
  [[nodiscard]] const auto& get(const M&) const noexcept {
    return parts_.template at<meta::index_of<I, M>()>();
  }

 private:
  static someip::InstanceId require_service(InstanceIdentifier instance) {
    if (instance.service != I::kInterface.service) {
      throw std::logic_error("Proxy<" + std::string(I::kInterface.name) +
                             ">: instance identifier names a different service (" +
                             instance.to_string() + ")");
    }
    return instance.instance;
  }

  meta::MemberParts<I, detail::ProxyPart> parts_;
};

/// Skeleton generated from a ServiceInterface descriptor.
template <meta::ServiceDescriptor I>
class Skeleton : public ServiceSkeleton {
 public:
  using Interface = I;

  Skeleton(Runtime& runtime, someip::InstanceId instance,
           MethodCallProcessingMode mode = MethodCallProcessingMode::kEvent)
      : ServiceSkeleton(runtime, {I::kInterface.service, instance}, mode),
        parts_(static_cast<ServiceSkeleton&>(*this)) {}

  /// The typed part for a member: SkeletonEvent, SkeletonMethod or
  /// SkeletonField.
  template <typename M>
  [[nodiscard]] auto& get(const M&) noexcept {
    return parts_.template at<meta::index_of<I, M>()>();
  }
  template <typename M>
  [[nodiscard]] const auto& get(const M&) const noexcept {
    return parts_.template at<meta::index_of<I, M>()>();
  }

 private:
  meta::MemberParts<I, detail::SkeletonPart> parts_;
};

}  // namespace dear::ara
