// Pool-balance invariant of the message path: every buffer released to
// common::BufferPool came from acquire(), so a steady message stream leaves
// the global shelf where it found it. A stray release — a plain vector copy
// handed back as if it were pooled — grows the shelf by one buffer per
// message until its byte budget, which shows up as process memory that
// grows with run length. Each test runs a stream for N and then 2N
// messages and requires the global shelf not to grow between the two.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ara_fixture.hpp"
#include "common/buffer_pool.hpp"

namespace dear::ara::testing {
namespace {

constexpr std::size_t kMessages = 1000;

std::size_t shelf_bytes() { return common::BufferPool::instance().retained_bytes(); }

/// Every other packet is delivered twice.
net::LinkParams duplicating_link() {
  net::LinkParams link;
  link.latency = sim::ExecTimeModel::uniform(10 * kMicrosecond, 50 * kMicrosecond);
  link.duplicate_probability = 0.5;
  return link;
}

TEST(BufferPoolBalance, DuplicatingSimNetworkKeepsTheShelfFlat) {
  sim::Kernel kernel;
  net::SimNetwork network(kernel, common::Rng(21));
  network.set_default_link(duplicating_link());
  std::uint64_t received = 0;
  network.bind({2, 200}, [&received](const net::Packet&) { ++received; });
  const auto stream = [&](std::size_t messages) {
    for (std::size_t i = 0; i < messages; ++i) {
      std::vector<std::uint8_t> payload = common::BufferPool::instance().acquire(64);
      payload.assign(64, static_cast<std::uint8_t>(i));
      network.send({1, 100}, {2, 200}, std::move(payload));
      kernel.run();
    }
  };
  stream(kMessages);
  const std::size_t after_n = shelf_bytes();
  stream(2 * kMessages);
  EXPECT_LE(shelf_bytes(), after_n) << "global shelf grew from " << after_n << " to "
                                    << shelf_bytes() << " bytes";
  EXPECT_GT(network.packets_duplicated(), kMessages);  // the stream did duplicate
  EXPECT_EQ(received, network.packets_sent() + network.packets_duplicated());
}

/// Two client processes subscribed to the server's typed tick event;
/// stream() sends ticks and delivers them.
struct FanOutWorld : ThreeProcessWorld {
  explicit FanOutWorld(com::BackendKind kind) : ThreeProcessWorld(kind) {
    skeleton = std::make_unique<TestSkeleton>(*runtimes[0], MethodCallProcessingMode::kEvent);
    for (std::size_t i = 0; i < 2; ++i) {
      proxies[i] = std::make_unique<TestProxy>(*runtimes[i + 1], kEndpoints[0]);
      proxies[i]->tick.SetImmediateReceiveHandler([this](const std::uint64_t&) { ++received; });
      proxies[i]->tick.Subscribe();
    }
    kernel.run();  // subscriptions land
  }

  void stream(std::size_t messages) {
    for (std::size_t i = 0; i < messages; ++i) {
      skeleton->tick.Send(i);
      kernel.run();
    }
  }

  std::unique_ptr<TestSkeleton> skeleton;
  std::unique_ptr<TestProxy> proxies[2];
  std::uint64_t received{0};
};

TEST(BufferPoolBalance, TypedFanOutOverDuplicatingSomeIpKeepsTheShelfFlat) {
  FanOutWorld world(com::BackendKind::kSomeIp);
  world.network.set_default_link(duplicating_link());
  world.stream(kMessages);
  const std::size_t after_n = shelf_bytes();
  world.stream(2 * kMessages);
  EXPECT_LE(shelf_bytes(), after_n) << "global shelf grew from " << after_n << " to "
                                    << shelf_bytes() << " bytes";
  EXPECT_GT(world.network.packets_duplicated(), kMessages);
  // Notifications are not deduplicated: a duplicated one is delivered twice.
  EXPECT_GT(world.received, 2 * 3 * kMessages);
}

TEST(BufferPoolBalance, TypedFanOutOverLocalKeepsTheShelfFlat) {
  FanOutWorld world(com::BackendKind::kLocal);
  world.stream(kMessages);
  const std::size_t after_n = shelf_bytes();
  world.stream(2 * kMessages);
  EXPECT_LE(shelf_bytes(), after_n) << "global shelf grew from " << after_n << " to "
                                    << shelf_bytes() << " bytes";
  EXPECT_EQ(world.received, 2 * 3 * kMessages);
}

}  // namespace
}  // namespace dear::ara::testing
