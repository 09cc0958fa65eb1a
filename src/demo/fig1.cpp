#include "demo/fig1.hpp"

#include <atomic>
#include <thread>

#include "ara/generated.hpp"
#include "ara/runtime.hpp"
#include "common/thread_pool.hpp"
#include "dear/dear.hpp"
#include "net/rt_network.hpp"
#include "net/sim_network.hpp"
#include "sim/sim_executor.hpp"
#include "someip/service_discovery.hpp"

namespace dear::demo {

namespace {

constexpr someip::ServiceId kCounterService = 0x2001;
constexpr someip::InstanceId kCounterInstance = 0x0001;
constexpr someip::MethodId kSetMethod = 0x0001;
constexpr someip::MethodId kAddMethod = 0x0002;
constexpr someip::MethodId kGetMethod = 0x0003;

constexpr net::Endpoint kServerEp{1, 20};
constexpr net::Endpoint kClientEp{2, 21};

/// The counter service, declared once as a descriptor; the classic
/// Skeleton/Proxy pair and the DEAR transactor bundles below all derive
/// from it. Method members bundle their arguments into a single request
/// value, exactly as the transactors model them.
struct Counter {
  static constexpr ara::meta::Method<std::int32_t, std::int32_t, kSetMethod> set{"set"};
  static constexpr ara::meta::Method<std::int32_t, std::int32_t, kAddMethod> add{"add"};
  static constexpr ara::meta::Method<reactor::Empty, std::int32_t, kGetMethod> get{"get"};
  static constexpr auto kInterface =
      ara::meta::service_interface("Counter", kCounterService, {1, 0}, set, add, get);
};

using CounterSkeleton = ara::Skeleton<Counter>;
using CounterProxy = ara::Proxy<Counter>;

/// The naive server: non-blocking methods over a shared state variable.
/// Mutual exclusion between invocations is enforced by the skeleton, but
/// no ordering is.
class CounterServer {
 public:
  explicit CounterServer(CounterSkeleton& skeleton) {
    skeleton.get(Counter::set).set_sync_handler([this](const std::int32_t& v) {
      value_ = v;
      return value_;
    });
    skeleton.get(Counter::add).set_sync_handler([this](const std::int32_t& v) {
      value_ += v;
      return value_;
    });
    skeleton.get(Counter::get).set_sync_handler([this](const reactor::Empty&) { return value_; });
  }

  void reset() noexcept { value_ = 0; }
  [[nodiscard]] std::int32_t value() const noexcept { return value_; }

 private:
  std::int32_t value_{0};
};

/// Runs the Figure 1 client body against a proxy; the three calls are
/// issued back-to-back without waiting ("non-blocking procedure calls").
Fig1Outcome run_client_body(CounterProxy& proxy) {
  Fig1Outcome outcome;
  auto set_future = proxy.get(Counter::set)(1);
  auto add_future = proxy.get(Counter::add)(2);
  auto get_future = proxy.get(Counter::get)(reactor::Empty{});
  const auto set_result = set_future.GetResult();
  const auto add_result = add_future.GetResult();
  const auto get_result = get_future.GetResult();
  outcome.completed =
      set_result.has_value() && add_result.has_value() && get_result.has_value();
  if (get_result.has_value()) {
    outcome.printed = get_result.value();
  }
  return outcome;
}

}  // namespace

// --- real-threads nondeterministic harness -------------------------------------

struct Fig1RealHarness::Impl {
  explicit Impl(std::size_t workers)
      : pool(workers), network(pool),
        server_rt(network, discovery, pool, kServerEp, 0x31),
        client_rt(network, discovery, pool, kClientEp, 0x32),
        skeleton(server_rt, kCounterInstance, ara::MethodCallProcessingMode::kEvent),
        server(skeleton) {
    skeleton.OfferService();
    proxy = std::make_unique<CounterProxy>(
        client_rt, kCounterInstance, *client_rt.resolve({kCounterService, kCounterInstance}));
    proxy->set_call_timeout(2 * kSecond);
  }

  // Pool tasks (network deliveries, call timeouts) use every member
  // below; stop the pool before any of those is destroyed.
  ~Impl() { pool.shutdown(); }

  common::ThreadPoolExecutor pool;
  someip::ServiceDiscovery discovery;
  net::RtNetwork network;
  ara::Runtime server_rt;
  ara::Runtime client_rt;
  CounterSkeleton skeleton;
  CounterServer server;
  std::unique_ptr<CounterProxy> proxy;
};

Fig1RealHarness::Fig1RealHarness(std::size_t workers)
    : impl_(std::make_unique<Impl>(workers)) {}

Fig1RealHarness::~Fig1RealHarness() = default;

std::size_t Fig1RealHarness::workers() const noexcept { return impl_->pool.worker_count(); }

Fig1Outcome Fig1RealHarness::run_trial() {
  // Trials are isolated: the previous trial waited on all three futures,
  // and the reset round-trips through the service itself.
  auto reset_future = impl_->proxy->get(Counter::set)(0);
  (void)reset_future.GetResult();
  return run_client_body(*impl_->proxy);
}

// --- DES nondeterministic variant ------------------------------------------------

Fig1Outcome run_fig1_nondet_sim(std::uint64_t seed) {
  common::Rng rng(seed);
  sim::Kernel kernel;
  net::SimNetwork network(kernel, rng.stream("net"));
  someip::ServiceDiscovery discovery;
  // The dispatch jitter models the thread wake-up races of the kEvent
  // processing mode.
  sim::SimExecutor executor(kernel, rng.stream("dispatch"));

  ara::Runtime server_rt(network, discovery, executor, kServerEp, 0x31);
  ara::Runtime client_rt(network, discovery, executor, kClientEp, 0x32);
  CounterSkeleton skeleton(server_rt, kCounterInstance, ara::MethodCallProcessingMode::kEvent);
  CounterServer server(skeleton);
  skeleton.OfferService();
  CounterProxy proxy(client_rt, kCounterInstance,
                     *client_rt.resolve({kCounterService, kCounterInstance}));

  Fig1Outcome outcome;
  auto set_future = proxy.get(Counter::set)(1);
  auto add_future = proxy.get(Counter::add)(2);
  auto get_future = proxy.get(Counter::get)(reactor::Empty{});
  kernel.run();
  outcome.completed = set_future.is_ready() && add_future.is_ready() && get_future.is_ready();
  if (get_future.is_ready() && get_future.GetResult().has_value()) {
    outcome.printed = get_future.GetResult().value();
  }
  return outcome;
}

// --- DEAR variants -----------------------------------------------------------------

namespace {

/// Deterministic counter server logic: one reaction per method, processing
/// strictly in tag order.
class CounterLogic final : public reactor::Reactor {
 public:
  reactor::Input<std::int32_t> set_req{"set_req", this};
  reactor::Output<std::int32_t> set_res{"set_res", this};
  reactor::Input<std::int32_t> add_req{"add_req", this};
  reactor::Output<std::int32_t> add_res{"add_res", this};
  reactor::Input<reactor::Empty> get_req{"get_req", this};
  reactor::Output<std::int32_t> get_res{"get_res", this};

  explicit CounterLogic(reactor::Environment& environment)
      : Reactor("counter_logic", environment) {
    add_reaction("on_set",
                 [this] {
                   value_ = set_req.get();
                   set_res.set(value_);
                 })
        .triggered_by(set_req)
        .writes(set_res);
    add_reaction("on_add",
                 [this] {
                   value_ += add_req.get();
                   add_res.set(value_);
                 })
        .triggered_by(add_req)
        .writes(add_res);
    add_reaction("on_get", [this] { get_res.set(value_); })
        .triggered_by(get_req)
        .writes(get_res);
  }

 private:
  std::int32_t value_{0};
};

/// The deterministic client: issues the three calls at successive logical
/// tags and records the printed result.
class DearClient final : public reactor::Reactor {
 public:
  reactor::Output<std::int32_t> set_out{"set_out", this};
  reactor::Output<std::int32_t> add_out{"add_out", this};
  reactor::Output<reactor::Empty> get_out{"get_out", this};
  reactor::Input<std::int32_t> printed_in{"printed_in", this};

  DearClient(reactor::Environment& environment, Duration spacing,
             std::function<void(std::int32_t)> on_printed)
      : Reactor("client", environment), on_printed_(std::move(on_printed)) {
    add_reaction("on_startup",
                 [this, spacing] {
                   do_set_.schedule(reactor::Empty{});
                   do_add_.schedule(reactor::Empty{}, spacing);
                   do_get_.schedule(reactor::Empty{}, 2 * spacing);
                 })
        .triggered_by(startup_);
    add_reaction("do_set", [this] { set_out.set(1); }).triggered_by(do_set_).writes(set_out);
    add_reaction("do_add", [this] { add_out.set(2); }).triggered_by(do_add_).writes(add_out);
    add_reaction("do_get", [this] { get_out.set(reactor::Empty{}); })
        .triggered_by(do_get_)
        .writes(get_out);
    add_reaction("on_printed", [this] { on_printed_(printed_in.get()); })
        .triggered_by(printed_in);
  }

 private:
  reactor::StartupTrigger startup_{"startup", this};
  reactor::LogicalAction<reactor::Empty> do_set_{"do_set", this};
  reactor::LogicalAction<reactor::Empty> do_add_{"do_add", this};
  reactor::LogicalAction<reactor::Empty> do_get_{"do_get", this};
  std::function<void(std::int32_t)> on_printed_;
};

/// Everything both DEAR variants share once clock/network/executor exist.
struct DearFig1World {
  DearFig1World(reactor::PhysicalClock& clock, net::Network& network,
                common::Executor& executor, someip::ServiceDiscovery& discovery,
                Duration spacing, std::function<void(std::int32_t)> on_printed,
                transact::TransactorConfig tc = default_transactor_config())
      : server_rt(network, discovery, executor, kServerEp, 0x41),
        client_rt(network, discovery, executor, kClientEp, 0x42),
        server_env(clock, env_config()),
        client_env(clock, env_config()),
        logic(server_env),
        server_side("counter_server", server_env, server_rt, kCounterInstance, tc) {
    server_env.connect(server_side.tx(Counter::set).request, logic.set_req);
    server_env.connect(logic.set_res, server_side.tx(Counter::set).response);
    server_env.connect(server_side.tx(Counter::add).request, logic.add_req);
    server_env.connect(logic.add_res, server_side.tx(Counter::add).response);
    server_env.connect(server_side.tx(Counter::get).request, logic.get_req);
    server_env.connect(logic.get_res, server_side.tx(Counter::get).response);

    client = std::make_unique<DearClient>(client_env, spacing, std::move(on_printed));
    client_side = std::make_unique<dear::ClientSide<Counter>>("counter_client", client_env,
                                                              client_rt, kCounterInstance, tc);
    client_env.connect(client->set_out, client_side->tx(Counter::set).request);
    client_env.connect(client->add_out, client_side->tx(Counter::add).request);
    client_env.connect(client->get_out, client_side->tx(Counter::get).request);
    client_env.connect(client_side->tx(Counter::get).response, client->printed_in);
  }

  [[nodiscard]] static reactor::Environment::Config env_config() {
    reactor::Environment::Config config;
    config.keepalive = true;
    return config;
  }

  [[nodiscard]] static transact::TransactorConfig default_transactor_config() {
    transact::TransactorConfig tc;
    tc.deadline = 2 * kMillisecond;
    tc.latency_bound = 5 * kMillisecond;
    tc.clock_error_bound = 0;
    return tc;
  }

  [[nodiscard]] std::uint64_t protocol_errors() const {
    return server_side.total_errors() + client_side->total_errors();
  }

  ara::Runtime server_rt;
  ara::Runtime client_rt;
  reactor::Environment server_env;
  reactor::Environment client_env;
  CounterLogic logic;
  /// Skeleton + server method transactors, derived from the descriptor
  /// (offered on construction — before the client side resolves it).
  dear::ServerSide<Counter> server_side;
  std::unique_ptr<DearClient> client;
  std::unique_ptr<dear::ClientSide<Counter>> client_side;
};

}  // namespace

Fig1Outcome run_fig1_dear_sim(std::uint64_t seed) {
  common::Rng rng(seed);
  sim::Kernel kernel;
  net::SimNetwork network(kernel, rng.stream("net"));
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor(kernel, rng.stream("dispatch"));
  reactor::SimClock clock(kernel);

  Fig1Outcome outcome;
  DearFig1World world(clock, network, executor, discovery, kMillisecond,
                      [&outcome](std::int32_t printed) {
                        outcome.printed = printed;
                        outcome.completed = true;
                      });

  reactor::SimDriver server_driver(world.server_env, kernel, rng.stream("cost.server"));
  reactor::SimDriver client_driver(world.client_env, kernel, rng.stream("cost.client"));
  server_driver.start();
  client_driver.start();

  kernel.run_until(kSecond);
  outcome.protocol_errors = world.protocol_errors();
#ifdef DEAR_FIG1_DEBUG
  const auto dump = [](const char* name, const transact::Transactor& t) {
    std::fprintf(stderr, "%s: sent=%llu released=%llu tardy=%llu untagged=%llu dropped=%llu dl=%llu remote=%llu\n",
                 name, (unsigned long long)t.messages_sent(), (unsigned long long)t.messages_released(),
                 (unsigned long long)t.tardy_messages(), (unsigned long long)t.untagged_messages(),
                 (unsigned long long)t.dropped_messages(), (unsigned long long)t.deadline_violations(),
                 (unsigned long long)t.remote_errors());
  };
  dump("set_client", world.client_side->tx(Counter::set));
  dump("add_client", world.client_side->tx(Counter::add));
  dump("get_client", world.client_side->tx(Counter::get));
  dump("set_server", world.server_side.tx(Counter::set));
  dump("add_server", world.server_side.tx(Counter::add));
  dump("get_server", world.server_side.tx(Counter::get));
#endif
  return outcome;
}

Fig1Outcome run_fig1_dear_threaded(std::size_t workers, Duration call_spacing) {
  common::ThreadPoolExecutor pool(workers);
  net::RtNetwork network(pool);
  someip::ServiceDiscovery discovery;
  reactor::RealClock clock;

  Fig1Outcome outcome;
  std::atomic<bool> printed_flag{false};
  std::function<void()> shutdown_all;
  // Real-time execution on a possibly loaded machine: use bounds generous
  // enough that OS preemption does not cause spurious deadline misses.
  transact::TransactorConfig tc;
  tc.deadline = 10 * kMillisecond;
  tc.latency_bound = 20 * kMillisecond;
  DearFig1World world(clock, network, pool, discovery, call_spacing,
                      [&](std::int32_t printed) {
                        outcome.printed = printed;
                        outcome.completed = true;
                        printed_flag.store(true);
                        shutdown_all();
                      },
                      tc);
  shutdown_all = [&world] {
    world.client_env.request_shutdown();
    world.server_env.request_shutdown();
  };

  std::thread server_thread([&world] { world.server_env.run(); });
  // The client's first tagged call must not race the server environment's
  // startup: a message whose release tag precedes the server's start tag
  // would be tardy. Wait until the server scheduler is live.
  for (int i = 0; i < 2000 && !world.server_env.scheduler().running(); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  std::thread client_thread([&world] { world.client_env.run(); });

  // Safety net in case of protocol errors: force shutdown after 2 s.
  std::thread watchdog([&] {
    for (int i = 0; i < 200 && !printed_flag.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    world.client_env.request_shutdown();
    world.server_env.request_shutdown();
  });

  client_thread.join();
  server_thread.join();
  watchdog.join();
  // Deliveries still running on the pool schedule into the environments;
  // stop the pool before the world is destroyed.
  pool.shutdown();
  outcome.protocol_errors = world.protocol_errors();
  return outcome;
}

}  // namespace dear::demo
