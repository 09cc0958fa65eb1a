// Shared conformance suite for TransportBinding backends.
//
// Every backend must satisfy the same observable contract — request/response
// session matching, timeout synthesis, subscribe/notify routing, the DEAR
// tag attach/deposit pairing, the fault-plan checks, the traffic counters
// and one binding per endpoint — regardless of whether messages cross a
// (simulated) wire or process memory. The suite is parameterized over a
// backend world so new transports plug in with one factory entry.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/com/someip_binding.hpp"
#include "common/buffer_pool.hpp"
#include "common/rng.hpp"
#include "ft/fault_model.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

namespace dear::ara::com {
namespace {

using namespace dear::literals;

constexpr someip::ServiceId kService = 0x0D0D;
constexpr someip::MethodId kEchoMethod = 0x0001;
constexpr someip::MethodId kMuteMethod = 0x0002;  // never answered
constexpr someip::EventId kDataEvent = 0x8001;

constexpr net::Endpoint kServerEp{1, 100};
constexpr net::Endpoint kClientEp{2, 200};
constexpr net::Endpoint kClient2Ep{3, 300};

/// One server and two clients on a discrete-event substrate; run() advances
/// simulated time (delivery, timers).
class BackendWorld {
 public:
  virtual ~BackendWorld() = default;
  virtual TransportBinding& server() = 0;
  virtual TransportBinding& client() = 0;
  virtual TransportBinding& client2() = 0;
  /// A further binding of this backend at `self` on the same substrate.
  virtual std::unique_ptr<TransportBinding> make_binding(net::Endpoint self,
                                                         someip::ClientId client_id) = 0;

  void run(Duration d = 10_ms) { kernel.run_until(kernel.now() + d); }

  sim::Kernel kernel;
  sim::ImmediateSimExecutor executor{kernel};
};

class SomeIpWorld final : public BackendWorld {
 public:
  TransportBinding& server() override { return server_; }
  TransportBinding& client() override { return client_; }
  TransportBinding& client2() override { return client2_; }
  std::unique_ptr<TransportBinding> make_binding(net::Endpoint self,
                                                 someip::ClientId client_id) override {
    return std::make_unique<SomeIpBinding>(network_, executor, self, client_id);
  }

 private:
  net::SimNetwork network_{kernel, common::Rng(17)};
  SomeIpBinding server_{network_, executor, kServerEp, 0x01};
  SomeIpBinding client_{network_, executor, kClientEp, 0x02};
  SomeIpBinding client2_{network_, executor, kClient2Ep, 0x03};
};

class LocalWorld final : public BackendWorld {
 public:
  TransportBinding& server() override { return server_; }
  TransportBinding& client() override { return client_; }
  TransportBinding& client2() override { return client2_; }
  std::unique_ptr<TransportBinding> make_binding(net::Endpoint self,
                                                 someip::ClientId client_id) override {
    return std::make_unique<LocalBinding>(hub_, executor, self, client_id);
  }

 private:
  LocalHub hub_;
  LocalBinding server_{hub_, executor, kServerEp, 0x01};
  LocalBinding client_{hub_, executor, kClientEp, 0x02};
  LocalBinding client2_{hub_, executor, kClient2Ep, 0x03};
};

std::unique_ptr<BackendWorld> make_world(const std::string& backend) {
  if (backend == "someip") {
    return std::make_unique<SomeIpWorld>();
  }
  return std::make_unique<LocalWorld>();
}

class BindingConformanceTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { world = make_world(GetParam()); }

  /// Server-side echo: replies with the request payload.
  void provide_echo() {
    world->server().provide_method(
        kService, kEchoMethod,
        [this](const someip::Message& request, const net::Endpoint& from) {
          world->server().respond(request, from, request.payload);
        });
  }

  /// Installs `plan` on every binding of the world.
  void install_plan() {
    for (TransportBinding* binding : {&world->server(), &world->client(), &world->client2()}) {
      binding->set_fault_plan(&plan);
    }
  }

  ft::FaultPlan plan;  // declared first: outlives the bindings that point to it
  std::unique_ptr<BackendWorld> world;
};

TEST_P(BindingConformanceTest, CallResponseMatching) {
  provide_echo();

  std::vector<std::uint8_t> got_a;
  std::vector<std::uint8_t> got_b;
  const someip::SessionId session_a = world->client().call(
      kServerEp, kService, kEchoMethod, {0xAA, 0x01},
      [&](const someip::Message& response) {
        EXPECT_EQ(response.type, someip::MessageType::kResponse);
        got_a = response.payload;
      });
  const someip::SessionId session_b = world->client().call(
      kServerEp, kService, kEchoMethod, {0xBB, 0x02},
      [&](const someip::Message& response) { got_b = response.payload; });
  EXPECT_NE(session_a, session_b);
  world->run();

  EXPECT_EQ(got_a, (std::vector<std::uint8_t>{0xAA, 0x01}));
  EXPECT_EQ(got_b, (std::vector<std::uint8_t>{0xBB, 0x02}));

  const TransportStats client_stats = world->client().stats();
  EXPECT_EQ(client_stats.requests_sent, 2U);
  EXPECT_EQ(client_stats.responses_received, 2U);
}

TEST_P(BindingConformanceTest, UnknownMethodYieldsErrorResponse) {
  int responses = 0;
  world->client().call(kServerEp, kService, 0x7777, {},
                       [&](const someip::Message& response) {
                         ++responses;
                         EXPECT_EQ(response.type, someip::MessageType::kError);
                         EXPECT_EQ(response.return_code, someip::ReturnCode::kUnknownMethod);
                       });
  world->run();
  EXPECT_EQ(responses, 1);
}

TEST_P(BindingConformanceTest, TimeoutSynthesis) {
  // The mute method swallows requests; the client must synthesize kTimeout.
  world->server().provide_method(kService, kMuteMethod,
                                 [](const someip::Message&, const net::Endpoint&) {});
  int responses = 0;
  world->client().call(kServerEp, kService, kMuteMethod, {0x01},
                       [&](const someip::Message& response) {
                         ++responses;
                         EXPECT_EQ(response.type, someip::MessageType::kError);
                         EXPECT_EQ(response.return_code, someip::ReturnCode::kTimeout);
                       },
                       5_ms);
  world->run(20_ms);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(world->client().stats().timeouts, 1U);

  // A response arriving after the synthesized timeout must not fire the
  // handler again.
  world->run(20_ms);
  EXPECT_EQ(responses, 1);
}

TEST_P(BindingConformanceTest, TimeoutNotSynthesizedWhenResponseArrives) {
  provide_echo();
  int responses = 0;
  world->client().call(kServerEp, kService, kEchoMethod, {0x05},
                       [&](const someip::Message& response) {
                         ++responses;
                         EXPECT_EQ(response.type, someip::MessageType::kResponse);
                       },
                       50_ms);
  world->run(100_ms);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(world->client().stats().timeouts, 0U);
}

TEST_P(BindingConformanceTest, CallNoReturnDelivers) {
  int requests = 0;
  world->server().provide_method(kService, kEchoMethod,
                                 [&](const someip::Message& request, const net::Endpoint&) {
                                   ++requests;
                                   EXPECT_EQ(request.type,
                                             someip::MessageType::kRequestNoReturn);
                                 });
  world->client().call_no_return(kServerEp, kService, kEchoMethod, {0x09});
  world->run();
  EXPECT_EQ(requests, 1);
}

TEST_P(BindingConformanceTest, SubscribeNotifyRouting) {
  int client_samples = 0;
  int client2_samples = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message& message) {
                              ++client_samples;
                              EXPECT_EQ(message.payload,
                                        (std::vector<std::uint8_t>{0x11, 0x22}));
                            });
  world->client2().subscribe(kServerEp, kService, kDataEvent,
                             [&](const someip::Message&) { ++client2_samples; });
  world->run();  // settle subscription management

  EXPECT_EQ(world->server().subscriber_count(kService, kDataEvent), 2U);
  world->server().notify(kService, kDataEvent, {0x11, 0x22});
  world->run();
  EXPECT_EQ(client_samples, 1);
  EXPECT_EQ(client2_samples, 1);

  world->client().unsubscribe(kServerEp, kService, kDataEvent);
  world->run();
  EXPECT_EQ(world->server().subscriber_count(kService, kDataEvent), 1U);
  world->server().notify(kService, kDataEvent, {0x11, 0x22});
  world->run();
  EXPECT_EQ(client_samples, 1);
  EXPECT_EQ(client2_samples, 2);

  const TransportStats server_stats = world->server().stats();
  EXPECT_EQ(server_stats.notifications_sent, 2U);
}

TEST_P(BindingConformanceTest, TagAttachDepositPairing) {
  // Round trip of paper Figure 3: the client arms tc+Dc, the server's
  // handler collects it while the request is current, arms ts+Ds for the
  // response, and the client collects that in its response handler.
  std::optional<someip::WireTag> server_seen;
  std::optional<someip::WireTag> client_seen;
  world->server().provide_method(
      kService, kEchoMethod, [&](const someip::Message& request, const net::Endpoint& from) {
        server_seen = world->server().collect_received_tag();
        world->server().attach_send_tag(someip::WireTag{900, 2});
        world->server().respond(request, from, request.payload);
      });

  world->client().attach_send_tag(someip::WireTag{500, 1});
  world->client().call(kServerEp, kService, kEchoMethod, {0x01},
                       [&](const someip::Message&) {
                         client_seen = world->client().collect_received_tag();
                       });
  world->run();

  ASSERT_TRUE(server_seen.has_value());
  EXPECT_EQ(*server_seen, (someip::WireTag{500, 1}));
  ASSERT_TRUE(client_seen.has_value());
  EXPECT_EQ(*client_seen, (someip::WireTag{900, 2}));

  EXPECT_EQ(world->client().stats().tagged_sent, 1U);
  EXPECT_EQ(world->client().stats().tagged_received, 1U);
  EXPECT_EQ(world->server().stats().tagged_sent, 1U);
  EXPECT_EQ(world->server().stats().tagged_received, 1U);
}

TEST_P(BindingConformanceTest, UncollectedTagIsClearedAfterDelivery) {
  // A handler that ignores the deposited tag must not leak it into the
  // next (untagged) delivery.
  int requests = 0;
  world->server().provide_method(kService, kEchoMethod,
                                 [&](const someip::Message& request, const net::Endpoint& from) {
                                   ++requests;  // does not collect the tag
                                   world->server().respond(request, from, request.payload);
                                 });
  world->client().attach_send_tag(someip::WireTag{77, 0});
  world->client().call(kServerEp, kService, kEchoMethod, {0x01}, [](const someip::Message&) {});
  world->run();
  EXPECT_EQ(requests, 1);
  EXPECT_FALSE(world->server().received_tag_armed());

  // Untagged follow-up: the server-side collect must yield nothing.
  std::optional<someip::WireTag> seen{someip::WireTag{1, 1}};
  world->server().provide_method(kService, kMuteMethod,
                                 [&](const someip::Message&, const net::Endpoint&) {
                                   seen = world->server().collect_received_tag();
                                 });
  world->client().call_no_return(kServerEp, kService, kMuteMethod, {0x02});
  world->run();
  EXPECT_FALSE(seen.has_value());
}

TEST_P(BindingConformanceTest, NotifyCarriesTagToEverySubscriber) {
  std::optional<someip::WireTag> seen1;
  std::optional<someip::WireTag> seen2;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) {
                              seen1 = world->client().collect_received_tag();
                            });
  world->client2().subscribe(kServerEp, kService, kDataEvent,
                             [&](const someip::Message&) {
                               seen2 = world->client2().collect_received_tag();
                             });
  world->run();

  world->server().attach_send_tag(someip::WireTag{4242, 7});
  world->server().notify(kService, kDataEvent, {0x01});
  world->run();

  ASSERT_TRUE(seen1.has_value());
  EXPECT_EQ(*seen1, (someip::WireTag{4242, 7}));
  ASSERT_TRUE(seen2.has_value());
  EXPECT_EQ(*seen2, (someip::WireTag{4242, 7}));
}

/// Payload bytes of a delivered notification, whichever plane carried
/// them: the local backend hands the loaned slab through, the wire
/// backend delivers a decoded vector.
std::vector<std::uint8_t> delivered_bytes(const someip::Message& message) {
  if (message.loaned) {
    return {message.loaned.data(), message.loaned.data() + message.loaned.size()};
  }
  return message.payload;
}

TEST_P(BindingConformanceTest, NotifyLoanedDeliversToEverySubscriber) {
  std::vector<std::uint8_t> seen1;
  std::vector<std::uint8_t> seen2;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message& message) {
                              seen1 = delivered_bytes(message);
                            });
  world->client2().subscribe(kServerEp, kService, kDataEvent,
                             [&](const someip::Message& message) {
                               seen2 = delivered_bytes(message);
                             });
  world->run();  // settle subscription management

  common::LoanedBuffer frame = common::BufferPool::instance().loan(1024);
  frame.data()[0] = 0x11;
  frame.data()[1] = 0x22;
  frame.data()[2] = 0x33;
  frame.publish(3);
  world->server().notify_loaned(kService, kDataEvent, std::move(frame));
  world->run();

  EXPECT_EQ(seen1, (std::vector<std::uint8_t>{0x11, 0x22, 0x33}));
  EXPECT_EQ(seen2, (std::vector<std::uint8_t>{0x11, 0x22, 0x33}));
  EXPECT_EQ(world->server().stats().notifications_sent, 1U);
}

TEST_P(BindingConformanceTest, NotifyLoanedReleasesSlabAfterDelivery) {
  // The publisher's retained handle must be the only one left once the
  // fan-out completes: the local backend's per-subscriber retains drop
  // with the delivered messages, the wire backend releases after framing.
  int samples = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++samples; });
  world->run();

  common::LoanedBuffer frame = common::BufferPool::instance().loan(1024);
  frame.publish(8);
  common::LoanedBuffer retained = frame;  // publisher-side retain
  world->server().notify_loaned(kService, kDataEvent, std::move(frame));
  world->run();
  EXPECT_EQ(samples, 1);
  EXPECT_EQ(retained.use_count(), 1U);
}

TEST_P(BindingConformanceTest, NotifyLoanedCarriesTagToEverySubscriber) {
  std::optional<someip::WireTag> seen1;
  std::optional<someip::WireTag> seen2;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) {
                              seen1 = world->client().collect_received_tag();
                            });
  world->client2().subscribe(kServerEp, kService, kDataEvent,
                             [&](const someip::Message&) {
                               seen2 = world->client2().collect_received_tag();
                             });
  world->run();

  common::LoanedBuffer frame = common::BufferPool::instance().loan(64);
  frame.publish(4);
  world->server().attach_send_tag(someip::WireTag{6161, 3});
  world->server().notify_loaned(kService, kDataEvent, std::move(frame));
  world->run();

  ASSERT_TRUE(seen1.has_value());
  EXPECT_EQ(*seen1, (someip::WireTag{6161, 3}));
  ASSERT_TRUE(seen2.has_value());
  EXPECT_EQ(*seen2, (someip::WireTag{6161, 3}));
}

TEST_P(BindingConformanceTest, NotifyLoanedEmptyHandleIsNoOp) {
  int samples = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++samples; });
  world->run();
  world->server().notify_loaned(kService, kDataEvent, common::LoanedBuffer{});
  world->run();
  EXPECT_EQ(samples, 0);
  EXPECT_EQ(world->server().stats().notifications_sent, 0U);
}

TEST_P(BindingConformanceTest, LateResponseAfterTimeoutIsIgnored) {
  // The server answers after the client's timeout: the client sees exactly
  // one callback (the synthesized timeout) and drops the late response.
  world->server().provide_method(
      kService, kEchoMethod, [this](const someip::Message& request, const net::Endpoint& from) {
        world->kernel.schedule_after(20_ms, [this, request, from] {
          world->server().respond(request, from, {0x01});
        });
      });
  int callbacks = 0;
  someip::ReturnCode code = someip::ReturnCode::kOk;
  world->client().call(kServerEp, kService, kEchoMethod, {},
                       [&](const someip::Message& response) {
                         ++callbacks;
                         code = response.return_code;
                       },
                       5_ms);
  world->run(50_ms);
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(code, someip::ReturnCode::kTimeout);
  EXPECT_EQ(world->client().stats().timeouts, 1U);
  EXPECT_EQ(world->client().stats().responses_received, 0U);
}

TEST_P(BindingConformanceTest, DuplicateSubscribeIsIdempotent) {
  int first = 0;
  int second = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++first; });
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++second; });
  world->run();
  EXPECT_EQ(world->server().subscriber_count(kService, kDataEvent), 1U);

  world->server().notify(kService, kDataEvent, {0x01});
  world->run();
  EXPECT_EQ(first, 0) << "the second subscribe replaces the handler";
  EXPECT_EQ(second, 1) << "one subscriber entry, one delivery";
}

TEST_P(BindingConformanceTest, UnsubscribeStopsDelivery) {
  std::vector<std::uint8_t> samples;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message& message) {
                              samples.push_back(message.payload.at(0));
                            });
  world->run();
  world->server().notify(kService, kDataEvent, {11});
  world->server().notify(kService, kDataEvent, {22});
  world->run();
  EXPECT_EQ(samples, (std::vector<std::uint8_t>{11, 22}));

  world->client().unsubscribe(kServerEp, kService, kDataEvent);
  world->run();
  EXPECT_EQ(world->server().subscriber_count(kService, kDataEvent), 0U);
  world->server().notify(kService, kDataEvent, {33});
  world->run();
  EXPECT_EQ(samples, (std::vector<std::uint8_t>{11, 22}));
  EXPECT_EQ(world->client().stats().notifications_received, 2U);
}

TEST_P(BindingConformanceTest, NotificationWithoutHandlerIsIgnored) {
  // No subscriber at all: the notification is counted and goes nowhere.
  world->server().notify(kService, kDataEvent, {0x01});
  world->run();
  EXPECT_EQ(world->server().stats().notifications_sent, 1U);

  // The client drops its handler while the server still lists it (over
  // SOME/IP the unsubscribe is in flight): nothing reaches the client.
  int samples = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++samples; });
  world->run();
  world->client().unsubscribe(kServerEp, kService, kDataEvent);
  world->server().notify(kService, kDataEvent, {0x02});
  world->run();
  EXPECT_EQ(samples, 0);
  EXPECT_EQ(world->client().stats().notifications_received, 0U);
}

TEST_P(BindingConformanceTest, UntaggedMessagesCarryNoTag) {
  std::optional<someip::WireTag> request_tag{someip::WireTag{1, 1}};
  std::optional<someip::WireTag> response_tag{someip::WireTag{1, 1}};
  std::optional<someip::WireTag> sample_tag{someip::WireTag{1, 1}};
  world->server().provide_method(
      kService, kEchoMethod, [&](const someip::Message& request, const net::Endpoint& from) {
        request_tag = world->server().collect_received_tag();
        world->server().respond(request, from, {});
      });
  world->client().subscribe(kServerEp, kService, kDataEvent, [&](const someip::Message&) {
    sample_tag = world->client().collect_received_tag();
  });
  world->run();
  world->client().call(kServerEp, kService, kEchoMethod, {}, [&](const someip::Message&) {
    response_tag = world->client().collect_received_tag();
  });
  world->server().notify(kService, kDataEvent, {0x01});
  world->run();

  EXPECT_FALSE(request_tag.has_value());
  EXPECT_FALSE(response_tag.has_value());
  EXPECT_FALSE(sample_tag.has_value());
  EXPECT_EQ(world->server().stats().tagged_received, 0U);
  EXPECT_EQ(world->client().stats().tagged_received, 0U);
  EXPECT_EQ(world->server().stats().tagged_sent, 0U);
  EXPECT_EQ(world->client().stats().tagged_sent, 0U);
}

/// Makes the server the plan's victim, down for wire-tag times [100, 200).
void crash_server(ft::FaultPlan& plan) {
  plan.victim = kServerEp;
  plan.down_from = 100;
  plan.down_until = 200;
}

TEST_P(BindingConformanceTest, CrashedVictimDropsTaggedTrafficOnReceive) {
  crash_server(plan);
  install_plan();
  EXPECT_EQ(world->server().fault_plan(), &plan);
  int served = 0;
  world->server().provide_method(
      kService, kEchoMethod, [&](const someip::Message& request, const net::Endpoint& from) {
        ++served;
        world->server().respond(request, from, request.payload);
      });

  // Inside the down window: the request dies at the victim's binding.
  int timeouts = 0;
  world->client().attach_send_tag(someip::WireTag{150, 0});
  world->client().call(kServerEp, kService, kEchoMethod, {0x01},
                       [&](const someip::Message& response) {
                         timeouts += response.return_code == someip::ReturnCode::kTimeout ? 1 : 0;
                       },
                       5_ms);
  world->run(20_ms);
  EXPECT_EQ(served, 0);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(plan.crash_drops.load(), 1U);
  EXPECT_EQ(world->server().stats().tagged_received, 0U);

  // Outside the window, and untagged, traffic reaches the victim.
  world->client().attach_send_tag(someip::WireTag{200, 0});
  world->client().call(kServerEp, kService, kEchoMethod, {0x02}, [](const someip::Message&) {});
  world->client().call(kServerEp, kService, kEchoMethod, {0x03}, [](const someip::Message&) {});
  world->run();
  EXPECT_EQ(served, 2);
  EXPECT_EQ(plan.crash_drops.load(), 1U);
}

TEST_P(BindingConformanceTest, CrashedVictimDropsTaggedTrafficOnSend) {
  crash_server(plan);
  install_plan();
  // Untagged subscription management passes while the victim is down.
  int samples = 0;
  world->client().subscribe(kServerEp, kService, kDataEvent,
                            [&](const someip::Message&) { ++samples; });
  world->client2().subscribe(kServerEp, kService, kDataEvent,
                             [&](const someip::Message&) { ++samples; });
  world->run();
  EXPECT_EQ(world->server().subscriber_count(kService, kDataEvent), 2U);

  world->server().attach_send_tag(someip::WireTag{199, 3});
  world->server().notify(kService, kDataEvent, {0x01});
  world->run();
  EXPECT_EQ(samples, 0);
  EXPECT_EQ(plan.crash_drops.load(), 2U) << "one drop per subscriber";
  EXPECT_EQ(world->server().stats().tagged_sent, 0U);
  EXPECT_FALSE(world->server().peek_send_tag().has_value());

  world->server().attach_send_tag(someip::WireTag{99, 0});
  world->server().notify(kService, kDataEvent, {0x02});
  world->run();
  EXPECT_EQ(samples, 2);
  EXPECT_EQ(world->server().stats().tagged_sent, 2U);
}

TEST_P(BindingConformanceTest, CallFaultOmissionSwallowsTheRequest) {
  plan.call_omission_probability = 1.0;
  install_plan();
  int served = 0;
  world->server().provide_method(kService, kEchoMethod,
                                 [&](const someip::Message&, const net::Endpoint&) { ++served; });
  someip::ReturnCode code = someip::ReturnCode::kOk;
  world->client().call(kServerEp, kService, kEchoMethod, {0x01},
                       [&](const someip::Message& response) { code = response.return_code; },
                       5_ms);
  // Fire-and-forget requests carry no session and never roll the die.
  world->client().call_no_return(kServerEp, kService, kEchoMethod, {0x02});
  world->run(20_ms);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(code, someip::ReturnCode::kTimeout);
  EXPECT_EQ(plan.call_omissions.load(), 1U);
  EXPECT_EQ(plan.call_errors.load(), 0U);
}

TEST_P(BindingConformanceTest, CallFaultErrorAnswersNotOk) {
  plan.call_error_probability = 1.0;
  install_plan();
  int served = 0;
  world->server().provide_method(kService, kEchoMethod,
                                 [&](const someip::Message&, const net::Endpoint&) { ++served; });
  int responses = 0;
  someip::ReturnCode code = someip::ReturnCode::kOk;
  world->client().call(kServerEp, kService, kEchoMethod, {0x01},
                       [&](const someip::Message& response) {
                         ++responses;
                         code = response.return_code;
                         EXPECT_EQ(response.type, someip::MessageType::kError);
                       },
                       5_ms);
  world->run(20_ms);
  EXPECT_EQ(served, 0);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(code, someip::ReturnCode::kNotOk);
  EXPECT_EQ(plan.call_errors.load(), 1U);
  EXPECT_EQ(world->client().stats().timeouts, 0U);
}

TEST_P(BindingConformanceTest, IdenticalTrafficGivesIdenticalStats) {
  // One fixed script; both backends must report these exact counters, so
  // their TransportStats are equal for identical traffic.
  provide_echo();
  world->server().provide_method(kService, kMuteMethod,
                                 [](const someip::Message&, const net::Endpoint&) {});
  world->client().subscribe(kServerEp, kService, kDataEvent, [](const someip::Message&) {});
  world->client2().subscribe(kServerEp, kService, kDataEvent, [](const someip::Message&) {});
  world->run();

  world->client().attach_send_tag(someip::WireTag{10, 0});
  world->client().call(kServerEp, kService, kEchoMethod, {0x01}, [](const someip::Message&) {});
  world->client().call(kServerEp, kService, kEchoMethod, {0x02}, [](const someip::Message&) {});
  world->client().call(kServerEp, kService, kMuteMethod, {0x03}, [](const someip::Message&) {},
                       5_ms);
  world->client().call_no_return(kServerEp, kService, kMuteMethod, {0x04});
  world->server().attach_send_tag(someip::WireTag{20, 0});
  world->server().notify(kService, kDataEvent, {0x05});
  world->server().notify(kService, kDataEvent, {0x06});
  world->run(20_ms);

  const TransportStats client = world->client().stats();
  EXPECT_EQ(client.requests_sent, 4U);
  EXPECT_EQ(client.responses_received, 2U);
  EXPECT_EQ(client.notifications_sent, 0U);
  EXPECT_EQ(client.notifications_received, 2U);
  EXPECT_EQ(client.tagged_sent, 1U);
  EXPECT_EQ(client.tagged_received, 1U);
  EXPECT_EQ(client.malformed_received, 0U);
  EXPECT_EQ(client.timeouts, 1U);

  const TransportStats server = world->server().stats();
  EXPECT_EQ(server.requests_sent, 0U);
  EXPECT_EQ(server.responses_received, 0U);
  EXPECT_EQ(server.notifications_sent, 2U);
  EXPECT_EQ(server.notifications_received, 0U);
  EXPECT_EQ(server.tagged_sent, 2U) << "one tagged notification per subscriber";
  EXPECT_EQ(server.tagged_received, 1U);
  EXPECT_EQ(server.malformed_received, 0U);
  EXPECT_EQ(server.timeouts, 0U);
}

TEST_P(BindingConformanceTest, AnEndpointBindsOnce) {
  // A second binding at a bound endpoint is refused; the first keeps
  // serving, also after the refused one is gone.
  provide_echo();
  EXPECT_THROW((void)world->make_binding(kServerEp, 0x09), std::logic_error);
  int responses = 0;
  world->client().call(kServerEp, kService, kEchoMethod, {0x01},
                       [&](const someip::Message& response) {
                         responses += response.type == someip::MessageType::kResponse ? 1 : 0;
                       },
                       10_ms);
  world->run(20_ms);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(world->client().stats().timeouts, 0U);

  // A free endpoint still binds.
  const auto other = world->make_binding({4, 400}, 0x04);
  EXPECT_EQ(other->endpoint(), (net::Endpoint{4, 400}));
}

TEST_P(BindingConformanceTest, IdentityAccessors) {
  EXPECT_EQ(world->server().endpoint(), kServerEp);
  EXPECT_EQ(world->client().endpoint(), kClientEp);
  EXPECT_EQ(world->server().client_id(), 0x01);
  EXPECT_FALSE(world->server().transport_name().empty());
}

INSTANTIATE_TEST_SUITE_P(Backends, BindingConformanceTest,
                         ::testing::Values(std::string("someip"), std::string("local")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace dear::ara::com
