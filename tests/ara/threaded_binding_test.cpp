// Both transports on a real 4-worker thread pool: the binding engine's
// locked path (unclaimed OwnerMutex, a contended receive drain handed to
// the executor, the real-threads network) under two concurrent callers and
// a concurrent notify fan-out. Every response must arrive exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "common/thread_pool.hpp"
#include "net/rt_network.hpp"

namespace dear::ara::com {
namespace {

constexpr someip::ServiceId kService = 0x0E0E;
constexpr someip::MethodId kEchoMethod = 0x0001;
constexpr someip::EventId kDataEvent = 0x8001;
constexpr net::Endpoint kServerEp{1, 100};
constexpr net::Endpoint kClientAEp{2, 200};
constexpr net::Endpoint kClientBEp{3, 300};
constexpr int kCallsPerClient = 300;
constexpr int kNotifies = 300;

/// One server and two clients of one backend on a shared thread pool. The
/// pool is declared first so it outlives the bindings and their substrate.
struct ThreadedWorld {
  explicit ThreadedWorld(const std::string& backend) {
    if (backend == "someip") {
      network = std::make_unique<net::RtNetwork>(pool);
      server = std::make_unique<SomeIpBinding>(*network, pool, kServerEp, 0x01);
      client_a = std::make_unique<SomeIpBinding>(*network, pool, kClientAEp, 0x02);
      client_b = std::make_unique<SomeIpBinding>(*network, pool, kClientBEp, 0x03);
    } else {
      server = std::make_unique<LocalBinding>(hub, pool, kServerEp, 0x01);
      client_a = std::make_unique<LocalBinding>(hub, pool, kClientAEp, 0x02);
      client_b = std::make_unique<LocalBinding>(hub, pool, kClientBEp, 0x03);
    }
  }

  /// Waits for every queued delivery before the bindings go away.
  ~ThreadedWorld() { pool.drain(); }

  common::ThreadPoolExecutor pool{4};
  std::unique_ptr<net::RtNetwork> network;
  LocalHub hub;
  std::unique_ptr<TransportBinding> server;
  std::unique_ptr<TransportBinding> client_a;
  std::unique_ptr<TransportBinding> client_b;
};

/// Polls `done` until it holds or 30 s pass; true when it held.
bool eventually(const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ThreadedBinding : public ::testing::TestWithParam<std::string> {};

TEST_P(ThreadedBinding, ConcurrentCallsAndFanOutDeliverExactlyOnce) {
  ThreadedWorld world(GetParam());
  ASSERT_FALSE(world.server->single_owner());
  TransportBinding& server = *world.server;
  server.provide_method(kService, kEchoMethod,
                        [&server](const someip::Message& request, const net::Endpoint& from) {
                          server.respond(request, from, request.payload);
                        });
  std::atomic<int> samples_a{0};
  std::atomic<int> samples_b{0};
  world.client_a->subscribe(kServerEp, kService, kDataEvent,
                            [&samples_a](const someip::Message&) { samples_a.fetch_add(1); });
  world.client_b->subscribe(kServerEp, kService, kDataEvent,
                            [&samples_b](const someip::Message&) { samples_b.fetch_add(1); });
  ASSERT_TRUE(eventually([&] { return server.subscriber_count(kService, kDataEvent) == 2; }));

  std::vector<std::atomic<int>> responses_a(kCallsPerClient);
  std::vector<std::atomic<int>> responses_b(kCallsPerClient);
  const auto caller = [](TransportBinding& client, std::vector<std::atomic<int>>& responses) {
    for (int i = 0; i < kCallsPerClient; ++i) {
      const std::vector<std::uint8_t> payload{static_cast<std::uint8_t>(i & 0xFF),
                                              static_cast<std::uint8_t>(i >> 8)};
      client.call(kServerEp, kService, kEchoMethod, payload,
                  [&responses, i, payload](const someip::Message& response) {
                    EXPECT_EQ(response.type, someip::MessageType::kResponse);
                    EXPECT_EQ(response.payload, payload);
                    responses[static_cast<std::size_t>(i)].fetch_add(1);
                  });
    }
  };
  std::thread thread_a(caller, std::ref(*world.client_a), std::ref(responses_a));
  std::thread thread_b(caller, std::ref(*world.client_b), std::ref(responses_b));
  std::thread notifier([&server] {
    for (int i = 0; i < kNotifies; ++i) {
      server.notify(kService, kDataEvent, {static_cast<std::uint8_t>(i)});
    }
  });
  thread_a.join();
  thread_b.join();
  notifier.join();

  const auto all_answered = [](const std::vector<std::atomic<int>>& responses) {
    for (const std::atomic<int>& count : responses) {
      if (count.load() == 0) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(eventually([&] {
    return all_answered(responses_a) && all_answered(responses_b) &&
           samples_a.load() == kNotifies && samples_b.load() == kNotifies;
  }));
  world.pool.drain();

  for (int i = 0; i < kCallsPerClient; ++i) {
    EXPECT_EQ(responses_a[static_cast<std::size_t>(i)].load(), 1) << "client A call " << i;
    EXPECT_EQ(responses_b[static_cast<std::size_t>(i)].load(), 1) << "client B call " << i;
  }
  EXPECT_EQ(samples_a.load(), kNotifies);
  EXPECT_EQ(samples_b.load(), kNotifies);
  for (TransportBinding* client : {world.client_a.get(), world.client_b.get()}) {
    const TransportStats stats = client->stats();
    EXPECT_EQ(stats.requests_sent, static_cast<std::uint64_t>(kCallsPerClient));
    EXPECT_EQ(stats.responses_received, static_cast<std::uint64_t>(kCallsPerClient));
    EXPECT_EQ(stats.notifications_received, static_cast<std::uint64_t>(kNotifies));
  }
  EXPECT_EQ(server.stats().notifications_sent, static_cast<std::uint64_t>(kNotifies));
}

INSTANTIATE_TEST_SUITE_P(Backends, ThreadedBinding,
                         ::testing::Values(std::string("someip"), std::string("local")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace dear::ara::com
