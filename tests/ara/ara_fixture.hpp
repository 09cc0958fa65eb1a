// Shared simulation world for the ara::com tests: two runtimes (server,
// client) over a DES network, plus a small test service with methods, an
// event and a field.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "ara/com/local_binding.hpp"
#include "ara/event.hpp"
#include "ara/field.hpp"
#include "ara/method.hpp"
#include "ara/proxy.hpp"
#include "ara/runtime.hpp"
#include "ara/skeleton.hpp"
#include "dear/tag_codec.hpp"  // Empty codec
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace dear::ara::testing {

inline constexpr someip::ServiceId kTestService = 0x0A0A;
inline constexpr someip::InstanceId kTestInstance = 1;
inline constexpr someip::MethodId kEchoMethod = 0x01;
inline constexpr someip::MethodId kAddMethod = 0x02;
inline constexpr someip::MethodId kSlowMethod = 0x03;
inline constexpr someip::EventId kTickEvent = 0x8001;
inline constexpr FieldIds kModeField{0x20, 0x21, 0x8020};

class TestSkeleton : public ServiceSkeleton {
 public:
  TestSkeleton(Runtime& runtime, MethodCallProcessingMode mode)
      : ServiceSkeleton(runtime, {kTestService, kTestInstance}, mode) {}

  SkeletonMethod<std::string, std::string> echo{*this, kEchoMethod};
  SkeletonMethod<std::int32_t, std::int32_t, std::int32_t> add{*this, kAddMethod};
  SkeletonMethod<std::int32_t, std::int32_t> slow{*this, kSlowMethod};
  SkeletonEvent<std::uint64_t> tick{*this, kTickEvent};
  SkeletonField<std::int32_t> mode{*this, kModeField};
};

class TestProxy : public ServiceProxy {
 public:
  TestProxy(Runtime& runtime, net::Endpoint server)
      : ServiceProxy(runtime, {kTestService, kTestInstance}, server) {}

  ProxyMethod<std::string, std::string> echo{*this, kEchoMethod};
  ProxyMethod<std::int32_t, std::int32_t, std::int32_t> add{*this, kAddMethod};
  ProxyMethod<std::int32_t, std::int32_t> slow{*this, kSlowMethod};
  ProxyEvent<std::uint64_t> tick{*this, kTickEvent};
  ProxyField<std::int32_t> mode{*this, kModeField};
};

class AraSimFixture : public ::testing::Test {
 protected:
  explicit AraSimFixture(MethodCallProcessingMode mode = MethodCallProcessingMode::kEvent)
      : skeleton_mode_(mode) {}

  void SetUp() override {
    skeleton = std::make_unique<TestSkeleton>(server_rt, skeleton_mode_);
    skeleton->echo.set_sync_handler([](const std::string& s) { return s; });
    skeleton->add.set_sync_handler(
        [](const std::int32_t& a, const std::int32_t& b) { return a + b; });
    skeleton->OfferService();
    proxy = std::make_unique<TestProxy>(client_rt,
                                        *client_rt.resolve({kTestService, kTestInstance}));
  }

  sim::Kernel kernel;
  net::SimNetwork network{kernel, common::Rng(3)};
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor{kernel, common::Rng(4)};
  Runtime server_rt{network, discovery, executor, {1, 100}, 0x01};
  Runtime client_rt{network, discovery, executor, {2, 200}, 0x02};
  MethodCallProcessingMode skeleton_mode_;
  std::unique_ptr<TestSkeleton> skeleton;
  std::unique_ptr<TestProxy> proxy;
};

/// A server process (runtimes[0] at kEndpoints[0]) and two client
/// processes on one DES kernel, over SOME/IP on a SimNetwork or over a
/// LocalHub.
struct ThreeProcessWorld {
  static constexpr net::Endpoint kEndpoints[3] = {{1, 100}, {2, 200}, {3, 300}};

  explicit ThreeProcessWorld(com::BackendKind kind) {
    for (std::size_t i = 0; i < 3; ++i) {
      const auto client_id = static_cast<someip::ClientId>(i + 1);
      if (kind == com::BackendKind::kSomeIp) {
        runtimes[i] =
            std::make_unique<Runtime>(network, discovery, executor, kEndpoints[i], client_id);
      } else {
        runtimes[i] = std::make_unique<Runtime>(
            discovery, executor, com::BackendKind::kLocal,
            std::make_unique<com::LocalBinding>(hub, executor, kEndpoints[i], client_id));
      }
    }
  }

  sim::Kernel kernel;
  net::SimNetwork network{kernel, common::Rng(22)};
  com::LocalHub hub;
  someip::ServiceDiscovery discovery;
  sim::ImmediateSimExecutor executor{kernel};
  std::unique_ptr<Runtime> runtimes[3];
};

}  // namespace dear::ara::testing
