// Fields and gradual migration, on the descriptor API.
//
// The cruise-control service is declared once, as a compile-time
// ServiceInterface descriptor with a single field member; everything else
// is derived from it:
//
// Part 1: plain ara::com usage — ara::Skeleton<Cruise> (field state in the
// skeleton) serves a legacy ara::Proxy<Cruise> client that gets/sets/
// subscribes.
//
// Part 2: a DEAR reactor client talks to the *same legacy server* through
// dear::ClientSide<Cruise>, which derives the field transactor bundle from
// the descriptor. The legacy server knows nothing about tags, so its
// responses arrive untagged; with UntaggedPolicy::kPhysicalTime the
// transactors treat them like sporadic sensor inputs — "backward
// compatibility with existing service implementations and the ability to
// gradually introduce reactor-based SWCs" (paper §III.B).
//
// Everything runs on the DES kernel (deterministic, seeded).
#include <cstdio>

#include "ara/generated.hpp"
#include "ara/runtime.hpp"
#include "common/cli.hpp"
#include "dear/dear.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"

using namespace dear;
using namespace dear::literals;

namespace {

constexpr someip::ServiceId kCruiseService = 0x3001;
constexpr someip::InstanceId kCruiseInstance = 1;

constexpr net::Endpoint kServerEp{1, 30};
constexpr net::Endpoint kLegacyClientEp{2, 31};
constexpr net::Endpoint kDearClientEp{2, 32};

/// The single source of truth for the cruise-control service.
struct Cruise {
  static constexpr ara::meta::Field<double, 0x0010, 0x0011, 0x8010> target_speed{"target_speed"};
  static constexpr auto kInterface =
      ara::meta::service_interface("Cruise", kCruiseService, {1, 0}, target_speed);
};

/// The DEAR monitor: periodically polls the field and reacts to updates,
/// all in deterministic tag order.
class Monitor final : public reactor::Reactor {
 public:
  reactor::Output<reactor::Empty> poll_out{"poll_out", this};
  reactor::Input<double> speed_in{"speed_in", this};
  reactor::Input<double> update_in{"update_in", this};

  explicit Monitor(reactor::Environment& env) : Reactor("monitor", env) {
    add_reaction("poll", [this] { poll_out.set(reactor::Empty{}); })
        .triggered_by(timer_)
        .writes(poll_out);
    add_reaction("on_poll_result",
                 [this] {
                   std::printf("  [monitor] t=%-9s polled target_speed = %.1f km/h\n",
                               format_duration(elapsed_logical_time()).c_str(), speed_in.get());
                 })
        .triggered_by(speed_in);
    add_reaction("on_update",
                 [this] {
                   std::printf("  [monitor] t=%-9s update notification  = %.1f km/h\n",
                               format_duration(elapsed_logical_time()).c_str(), update_in.get());
                 })
        .triggered_by(update_in);
  }

 private:
  reactor::Timer timer_{"poll_timer", this, 20_ms, 5_ms};
};

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli("field_monitor",
                  "Legacy ara::com field usage plus a DEAR monitor on the same server.");
  cli.add_int("seed", 42, "seed for the simulated network and dispatch streams");
  if (!cli.parse(argc, argv)) {
    return cli.exit_code();
  }

  common::Rng rng(cli.get_int("seed"));
  sim::Kernel kernel;
  net::SimNetwork network(kernel, rng.stream("net"));
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor(kernel, rng.stream("dispatch"));

  // --- the legacy server -------------------------------------------------------
  ara::Runtime server_rt(network, discovery, executor, kServerEp, 0x51);
  ara::Skeleton<Cruise> server(server_rt, kCruiseInstance);
  server.get(Cruise::target_speed).set_set_filter([](const double& requested) {
    return requested < 0.0 ? 0.0 : (requested > 130.0 ? 130.0 : requested);
  });
  server.get(Cruise::target_speed).Update(100.0);
  server.OfferService();

  // --- part 1: legacy client ----------------------------------------------------
  std::printf("== Part 1: legacy ara::com client ==\n");
  ara::Runtime legacy_rt(network, discovery, executor, kLegacyClientEp, 0x52);
  ara::Proxy<Cruise> legacy(legacy_rt, kCruiseInstance,
                            *legacy_rt.resolve({kCruiseService, kCruiseInstance}));
  legacy.get(Cruise::target_speed).notifier().SetReceiveHandler([](const double& value) {
    std::printf("  [legacy]  update notification = %.1f km/h\n", value);
  });
  legacy.get(Cruise::target_speed).notifier().Subscribe();

  auto get_future = legacy.get(Cruise::target_speed).Get();
  get_future.then([](const ara::Result<double>& result) {
    std::printf("  [legacy]  Get() -> %.1f km/h\n", result.value_or(-1.0));
  });
  auto set_future = legacy.get(Cruise::target_speed).Set(150.0);  // gets clamped to 130
  set_future.then([](const ara::Result<double>& result) {
    std::printf("  [legacy]  Set(150.0) adopted -> %.1f km/h (server clamped)\n",
                result.value_or(-1.0));
  });
  kernel.run();

  // --- part 2: DEAR reactor client against the unchanged legacy server ------------
  std::printf("\n== Part 2: DEAR monitor with UntaggedPolicy::kPhysicalTime ==\n");
  ara::Runtime dear_rt(network, discovery, executor, kDearClientEp, 0x53);

  reactor::SimClock clock(kernel);
  reactor::Environment::Config env_config;
  env_config.keepalive = true;
  env_config.timeout = 100_ms;
  reactor::Environment env(clock, env_config);

  Monitor monitor(env);
  transact::TransactorConfig tc;
  tc.deadline = 2_ms;
  tc.latency_bound = 5_ms;
  tc.untagged = transact::UntaggedPolicy::kPhysicalTime;  // legacy peer!
  dear::ClientSide<Cruise> cruise("speed_field", env, dear_rt, kCruiseInstance, tc);
  auto& field = cruise.tx(Cruise::target_speed);
  env.connect(monitor.poll_out, field.get.request);
  env.connect(field.get.response, monitor.speed_in);
  env.connect(field.notify.out, monitor.update_in);

  reactor::SimDriver driver(env, kernel, rng.stream("cost"));
  driver.start();

  // Someone changes the set-point mid-run (a legacy write).
  kernel.schedule_after(50_ms, [&] { server.get(Cruise::target_speed).Update(80.0); });

  kernel.run();

  std::printf("\nuntagged messages handled by the DEAR client: %llu (policy: physical time)\n",
              static_cast<unsigned long long>(cruise.untagged_messages()));
  return 0;
}
