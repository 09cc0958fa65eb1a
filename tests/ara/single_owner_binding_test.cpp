// A binding claims its locks only when its executor is single-threaded:
// on a DES executor both transports are single-owner, on a thread pool
// they stay locked and survive concurrent senders.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "common/thread_pool.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace dear::ara {
namespace {

constexpr someip::ServiceId kService = 0x0C0C;
constexpr someip::EventId kEvent = 0x8001;

TEST(SingleOwnerBinding, DesExecutorBindingsAreSingleOwner) {
  sim::Kernel kernel;
  net::SimNetwork network(kernel, common::Rng(3));
  sim::SimExecutor jittered(kernel, common::Rng(4));
  sim::ImmediateSimExecutor immediate(kernel);
  com::LocalHub hub;

  const com::SomeIpBinding wire(network, jittered, {1, 100}, 0x01);
  const com::LocalBinding local(hub, immediate, {1, 101}, 0x02);
  const com::TransportBinding* const bindings[] = {&wire, &local};
  for (const com::TransportBinding* binding : bindings) {
    EXPECT_TRUE(binding->single_owner()) << binding->transport_name();
    EXPECT_TRUE(binding->send_bypass().single_owner()) << binding->transport_name();
    EXPECT_TRUE(binding->receive_bypass().single_owner()) << binding->transport_name();
  }
}

TEST(SingleOwnerBinding, ThreadPoolBindingsStayLocked) {
  sim::Kernel kernel;
  net::SimNetwork network(kernel, common::Rng(3));
  common::ThreadPoolExecutor pool(2);
  com::LocalHub hub;

  const com::SomeIpBinding wire(network, pool, {1, 100}, 0x01);
  com::LocalBinding server(hub, pool, {1, 101}, 0x02);
  com::LocalBinding client(hub, pool, {2, 201}, 0x03);
  const com::TransportBinding* const bindings[] = {&wire, &server, &client};
  for (const com::TransportBinding* binding : bindings) {
    EXPECT_FALSE(binding->single_owner()) << binding->transport_name();
    EXPECT_FALSE(binding->send_bypass().single_owner()) << binding->transport_name();
    EXPECT_FALSE(binding->receive_bypass().single_owner()) << binding->transport_name();
  }

  // Concurrent senders into one subscriber: every counter and handler
  // table access stays serialized, so nothing is lost or double-counted.
  std::atomic<int> received{0};
  client.subscribe(server.endpoint(), kService, kEvent,
                   [&received](const someip::Message&) { received.fetch_add(1); });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> senders;
  senders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    senders.emplace_back([&server] {
      for (int i = 0; i < kPerThread; ++i) {
        server.notify(kService, kEvent, {static_cast<std::uint8_t>(i)});
      }
    });
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  // Contended deliveries hand their drain to the pool; wait for it.
  pool.drain();
  EXPECT_EQ(received.load(), kThreads * kPerThread);
  EXPECT_EQ(server.stats().notifications_sent, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(client.stats().notifications_received,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace dear::ara
