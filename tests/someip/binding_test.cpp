// ara::com::SomeIpBinding over a SimNetwork: request/response, timeouts,
// fire-and-forget and the timestamp bypass end to end through the wire
// format, plus the SOME/IP-only behaviour — the session matching of many
// in-flight requests, at-most-once delivery of duplicated request
// datagrams, the subscription control protocol and malformed-packet
// accounting. The contract both transports share is checked by the
// binding conformance suite (tests/ara/binding_conformance_test.cpp).
#include "ara/com/someip_binding.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace dear::ara::com {
namespace {

using namespace dear::literals;
using someip::Message;

struct BindingFixture : public ::testing::Test {
  sim::Kernel kernel;
  net::SimNetwork network{kernel, common::Rng(5)};
  sim::ImmediateSimExecutor executor{kernel};
  net::Endpoint server_ep{1, 100};
  net::Endpoint client_ep{2, 200};
  SomeIpBinding server{network, executor, server_ep, 0x0001};
  SomeIpBinding client{network, executor, client_ep, 0x0002};
};

TEST_F(BindingFixture, RequestResponseRoundTrip) {
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    EXPECT_EQ(request.payload, (std::vector<std::uint8_t>{7}));
    server.respond(request, from, {42});
  });
  std::vector<std::uint8_t> response_payload;
  client.call(server_ep, 0x10, 0x01, {7},
              [&](const Message& response) { response_payload = response.payload; });
  kernel.run();
  EXPECT_EQ(response_payload, (std::vector<std::uint8_t>{42}));
  EXPECT_EQ(client.stats().requests_sent, 1u);
  EXPECT_EQ(client.stats().responses_received, 1u);
}

TEST_F(BindingFixture, SessionsMatchConcurrentCalls) {
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    server.respond(request, from, request.payload);  // echo
  });
  std::map<int, int> echoed;
  for (std::uint8_t i = 0; i < 20; ++i) {
    client.call(server_ep, 0x10, 0x01, {i},
                [&echoed, i](const Message& response) { echoed[i] = response.payload[0]; });
  }
  kernel.run();
  ASSERT_EQ(echoed.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(echoed[i], i);
  }
}

TEST_F(BindingFixture, DuplicatedRequestExecutesTheMethodOnce) {
  // Network duplication (scenario-engine fault knob) delivers the same
  // request datagram twice; SOME/IP sessions give it at-most-once
  // identity, so the method must run once and the client still complete.
  net::LinkParams duplicating;
  duplicating.latency = sim::ExecTimeModel::constant(100_us);
  duplicating.duplicate_probability = 1.0;
  network.set_default_link(duplicating);

  int executions = 0;
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    ++executions;
    server.respond(request, from, {9});
  });
  int responses = 0;
  client.call(server_ep, 0x10, 0x01, {1}, [&](const Message&) { ++responses; });
  client.call(server_ep, 0x10, 0x01, {2}, [&](const Message&) { ++responses; });
  kernel.run();
  EXPECT_EQ(executions, 2) << "one execution per distinct call, not per datagram";
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(server.duplicate_requests(), 2u);
}

TEST_F(BindingFixture, DistinctSessionsAreNotTreatedAsDuplicates) {
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    server.respond(request, from, request.payload);
  });
  int responses = 0;
  for (int i = 0; i < 300; ++i) {  // exceeds the recent-request window
    client.call(server_ep, 0x10, 0x01, {1}, [&](const Message&) { ++responses; });
  }
  kernel.run();
  EXPECT_EQ(responses, 300);
  EXPECT_EQ(server.duplicate_requests(), 0u);
}

TEST_F(BindingFixture, UnknownMethodGetsErrorResponse) {
  someip::ReturnCode code = someip::ReturnCode::kOk;
  client.call(server_ep, 0x99, 0x01, {},
              [&](const Message& response) { code = response.return_code; });
  kernel.run();
  EXPECT_EQ(code, someip::ReturnCode::kUnknownMethod);
}

TEST_F(BindingFixture, TimeoutSynthesizesError) {
  server.provide_method(0x10, 0x01, [](const Message&, const net::Endpoint&) {
    // never responds
  });
  someip::ReturnCode code = someip::ReturnCode::kOk;
  client.call(server_ep, 0x10, 0x01, {}, [&](const Message& r) { code = r.return_code; },
              10_ms);
  kernel.run();
  EXPECT_EQ(code, someip::ReturnCode::kTimeout);
  EXPECT_EQ(client.stats().timeouts, 1u);
}

TEST_F(BindingFixture, FireAndForgetReachesServer) {
  int calls = 0;
  server.provide_method(0x10, 0x02, [&](const Message& request, const net::Endpoint&) {
    ++calls;
    EXPECT_EQ(request.type, someip::MessageType::kRequestNoReturn);
  });
  client.call_no_return(server_ep, 0x10, 0x02, {1, 2});
  kernel.run();
  EXPECT_EQ(calls, 1);
}

TEST_F(BindingFixture, SubscribeNotifyUnsubscribe) {
  std::vector<std::uint8_t> samples;
  client.subscribe(server_ep, 0x10, 0x8001,
                   [&](const Message& n) { samples.push_back(n.payload[0]); });
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 1u);
  server.notify(0x10, 0x8001, {11});
  server.notify(0x10, 0x8001, {22});
  kernel.run();
  EXPECT_EQ(samples, (std::vector<std::uint8_t>{11, 22}));
  client.unsubscribe(server_ep, 0x10, 0x8001);
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 0u);
  server.notify(0x10, 0x8001, {33});
  kernel.run();
  EXPECT_EQ(samples.size(), 2u);
}

TEST_F(BindingFixture, NotifyFansOutToMultipleSubscribers) {
  SomeIpBinding client2(network, executor, {3, 300}, 0x0003);
  int count1 = 0;
  int count2 = 0;
  client.subscribe(server_ep, 0x10, 0x8001, [&](const Message&) { ++count1; });
  client2.subscribe(server_ep, 0x10, 0x8001, [&](const Message&) { ++count2; });
  kernel.run();
  server.notify(0x10, 0x8001, {1});
  kernel.run();
  EXPECT_EQ(count1, 1);
  EXPECT_EQ(count2, 1);
}

TEST_F(BindingFixture, DuplicateSubscribeIsIdempotent) {
  client.subscribe(server_ep, 0x10, 0x8001, [](const Message&) {});
  client.subscribe(server_ep, 0x10, 0x8001, [](const Message&) {});
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 1u);
}

TEST_F(BindingFixture, TagTravelsThroughBypasses) {
  // Deposit a tag on the client side, observe it on the server side —
  // the paper's §III.B mechanism end to end.
  std::optional<someip::WireTag> seen;
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    seen = server.collect_received_tag();
    // Respond with another tag.
    server.attach_send_tag(someip::WireTag{900, 1});
    server.respond(request, from, {});
  });
  std::optional<someip::WireTag> response_tag;
  client.attach_send_tag(someip::WireTag{500, 2});
  client.call(server_ep, 0x10, 0x01, {},
              [&](const Message&) { response_tag = client.collect_received_tag(); });
  kernel.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->time, 500);
  EXPECT_EQ(seen->microstep, 2u);
  ASSERT_TRUE(response_tag.has_value());
  EXPECT_EQ(response_tag->time, 900);
  EXPECT_EQ(client.stats().tagged_sent, 1u);
  EXPECT_EQ(server.stats().tagged_received, 1u);
  EXPECT_EQ(server.stats().tagged_sent, 1u);
  EXPECT_EQ(client.stats().tagged_received, 1u);
}

TEST_F(BindingFixture, UncollectedReceiveTagIsCleared) {
  // A handler that ignores the bypass must not leak the tag into the next
  // message's context.
  server.provide_method(0x10, 0x01, [&](const Message& request, const net::Endpoint& from) {
    server.respond(request, from, {});
  });
  client.attach_send_tag(someip::WireTag{77, 0});
  client.call(server_ep, 0x10, 0x01, {}, [](const Message&) {});
  kernel.run();
  EXPECT_FALSE(server.received_tag_armed());
}

TEST_F(BindingFixture, ControlMessagesManageTheSubscriberList) {
  // The control protocol on the wire: a (service, event) pair sent to the
  // control service subscribes or unsubscribes the sender; a truncated
  // pair is counted as malformed and changes nothing.
  const auto control = [](someip::MethodId method, std::vector<std::uint8_t> payload) {
    Message message;
    message.service = SomeIpBinding::kControlService;
    message.method = method;
    message.client = 0x0002;
    message.type = someip::MessageType::kRequestNoReturn;
    message.payload = std::move(payload);
    return message.encode();
  };
  const std::vector<std::uint8_t> pair{0x00, 0x10, 0x80, 0x01};  // 0x10, 0x8001
  network.send(client_ep, server_ep, control(SomeIpBinding::kSubscribeMethod, pair));
  network.send({3, 300}, server_ep, control(SomeIpBinding::kSubscribeMethod, pair));
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 2u);

  network.send(client_ep, server_ep, control(SomeIpBinding::kUnsubscribeMethod, {0x00, 0x10}));
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 2u);
  EXPECT_EQ(server.stats().malformed_received, 1u);

  network.send(client_ep, server_ep, control(SomeIpBinding::kUnsubscribeMethod, pair));
  kernel.run();
  EXPECT_EQ(server.subscriber_count(0x10, 0x8001), 1u);
}

TEST_F(BindingFixture, MalformedPacketCounted) {
  network.send(client_ep, server_ep, {0x01, 0x02, 0x03});
  kernel.run();
  EXPECT_EQ(server.stats().malformed_received, 1u);
}

}  // namespace
}  // namespace dear::ara::com
