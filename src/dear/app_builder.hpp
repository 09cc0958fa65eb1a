// Declarative assembly of DEAR reactor applications on the DES testbed.
//
// An application in the paper's deployment model is a set of SWC processes
// ("nodes"), each hosting logic reactors bound to AP service interfaces
// through transactors, plus a deployment decision per service instance
// (which transport backend carries it). AppBuilder turns the ~100 lines of
// per-node boilerplate that used to be written by hand (runtime, reactor
// environment, DES driver, skeleton/proxy parts, transactor wiring,
// backend attachment) into a declaration:
//
//   dear::AppBuilder app(kernel, network, discovery, executor, rng, config);
//   auto& radar = app.node("radar", kRadarEp, 0x31);
//   auto& logic = radar.logic<RadarLogic>(cost_model);
//   auto& scan  = radar.serve<RadarService>(kInstance);
//   radar.connect(logic.out, scan.tx(RadarService::scan).in);
//   ...
//   app.start();
//   kernel.run_until(horizon);
//
// Ordering contract (enforced by exceptions, mirroring ara::com service
// discovery): declare every serve<I>() before the require<I>()/proxy<I>()
// that consumes it — skeletons are offered on construction and clients
// resolve the offer. Deployment is declarative: configuring a LocalHub
// moves every service instance of the app onto the zero-copy in-process
// backend (PR 1's BindingRegistry); nothing else in the app changes, and
// determinism makes the two deployments observably identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ara/com/local_binding.hpp"
#include "ara/generated.hpp"
#include "ara/runtime.hpp"
#include "common/object_arena.hpp"
#include "common/rng.hpp"
#include "dear/bundles.hpp"
#include "net/network.hpp"
#include "reactor/sim_driver.hpp"
#include "sim/kernel.hpp"

namespace dear {

namespace analysis {
struct Report;
enum class Gate : std::uint8_t;
}

class AppBuilder : public transact::TransactorStats<AppBuilder> {
 public:
  struct Config {
    /// Default transactor configuration (deadline, L, E, untagged policy)
    /// applied to every bundle that does not override it.
    transact::TransactorConfig transactor{};
    /// When set, every node attaches a LocalBinding to this hub and every
    /// served/required instance is deployed onto the in-process backend
    /// instead of SOME/IP.
    ara::com::LocalHub* local_hub{nullptr};
    /// Per-node reactor environment configuration. keepalive is forced on:
    /// transactors schedule physical actions from the receive path.
    reactor::Environment::Config environment{};
  };

  class Node;

  /// One transactor as declared through a node, with the context the
  /// static verifier needs: which node hosts it and which side of the
  /// service it plays.
  struct TransactorRecord {
    const transact::Transactor* transactor{nullptr};
    const Node* node{nullptr};
    bool server{false};
  };

  /// One end-to-end latency budget declared on a served descriptor
  /// (ara::meta::EndToEndBudget), resolved to the serving node. Consumed
  /// by the static timing analyzer (analysis/timing.hpp, DEAR-LAT-001).
  struct BudgetRecord {
    std::string member;  // "<Interface>.<member>"
    const Node* node{nullptr};
    Duration budget{0};
  };

  AppBuilder(sim::Kernel& kernel, net::Network& network, someip::ServiceDiscovery& discovery,
             common::Executor& dispatcher, common::Rng& platform_rng)
      : AppBuilder(kernel, network, discovery, dispatcher, platform_rng, Config{}) {}

  AppBuilder(sim::Kernel& kernel, net::Network& network, someip::ServiceDiscovery& discovery,
             common::Executor& dispatcher, common::Rng& platform_rng, Config config)
      : kernel_(kernel),
        network_(network),
        discovery_(discovery),
        dispatcher_(dispatcher),
        platform_rng_(platform_rng),
        config_(config),
        sim_clock_(kernel) {
    config_.environment.keepalive = true;
  }

  AppBuilder(const AppBuilder&) = delete;
  AppBuilder& operator=(const AppBuilder&) = delete;

  /// One SWC process: an ara runtime, a reactor environment and a DES
  /// driver. The logic reactors, bundles and proxies declared on it live
  /// in the app's arena. The driver's execution-cost stream is
  /// "cost.<name>" off the app's platform rng.
  class Node {
   public:
    Node(AppBuilder& app, std::string name, net::Endpoint endpoint, someip::ClientId client_id)
        : app_(app),
          name_(std::move(name)),
          runtime_(app.network_, app.discovery_, app.dispatcher_, endpoint, client_id),
          environment_(app.sim_clock_, app.config_.environment),
          driver_(environment_, app.kernel_, app.platform_rng_.stream("cost." + name_)) {
      if (app_.config_.local_hub != nullptr) {
        runtime_.attach_backend(ara::com::BackendKind::kLocal,
                                std::make_unique<ara::com::LocalBinding>(
                                    *app_.config_.local_hub, app_.dispatcher_,
                                    runtime_.endpoint(), runtime_.binding().client_id()));
      }
    }

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    /// Constructs a logic reactor R(environment, args...) owned by the node.
    template <typename R, typename... Args>
    R& logic(Args&&... args) {
      return own<R>(environment_, std::forward<Args>(args)...);
    }

    /// Offers interface I at `instance` with the server transactor bundle.
    template <typename I>
    transact::ServerSide<I>& serve(someip::InstanceId instance) {
      return serve<I>(instance, app_.config_.transactor);
    }
    template <typename I>
    transact::ServerSide<I>& serve(someip::InstanceId instance,
                                   transact::TransactorConfig config) {
      deploy<I>(instance);
      auto& bundle = own<transact::ServerSide<I>>(bundle_name<I>(), environment_, runtime_,
                                                  instance, config);
      register_transactors(bundle, /*server=*/true);
      register_budgets<I>();
      return bundle;
    }

    /// Subscribes to interface I at `instance` with the client transactor
    /// bundle; the serving node must have declared serve<I>() already.
    template <typename I>
    transact::ClientSide<I>& require(someip::InstanceId instance) {
      return require<I>(instance, app_.config_.transactor);
    }
    template <typename I>
    transact::ClientSide<I>& require(someip::InstanceId instance,
                                     transact::TransactorConfig config) {
      deploy<I>(instance);
      auto& bundle = own<transact::ClientSide<I>>(bundle_name<I>(), environment_, runtime_,
                                                  instance, config);
      register_transactors(bundle, /*server=*/false);
      return bundle;
    }

    /// A plain descriptor-generated proxy on this node (no transactors):
    /// the escape hatch for untagged legacy-style clients, e.g. monitors.
    template <typename I>
    ara::Proxy<I>& proxy(someip::InstanceId instance) {
      deploy<I>(instance);
      const auto endpoint = runtime_.resolve({I::kInterface.service, instance});
      if (!endpoint.has_value()) {
        throw std::logic_error("AppBuilder node '" + name_ + "': " +
                               std::string(I::kInterface.name) +
                               " is not offered (declare serve<I>() first)");
      }
      return own<ara::Proxy<I>>(runtime_, instance, *endpoint);
    }

    template <typename T>
    void connect(reactor::Port<T>& from, reactor::Port<T>& to) {
      environment_.connect(from, to);
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] ara::Runtime& runtime() noexcept { return runtime_; }
    [[nodiscard]] reactor::Environment& environment() noexcept { return environment_; }
    [[nodiscard]] const reactor::Environment& environment() const noexcept {
      return environment_;
    }
    [[nodiscard]] reactor::SimDriver& driver() noexcept { return driver_; }

   private:
    friend class AppBuilder;

    /// Objects owned by the node live in the app's arena, which destroys
    /// them before the node (last created first).
    template <typename T, typename... Args>
    T& own(Args&&... args) {
      return app_.arena_.create<T>(std::forward<Args>(args)...);
    }

    template <typename I>
    void deploy(someip::InstanceId instance) {
      if (app_.config_.local_hub != nullptr) {
        runtime_.deploy({I::kInterface.service, instance}, ara::com::BackendKind::kLocal);
      }
    }

    template <typename I>
    [[nodiscard]] reactor::Name bundle_name() const {
      return {name_, I::kInterface.name};
    }

    template <typename Bundle>
    void register_transactors(const Bundle& bundle, bool server) {
      bundle.for_each_transactor([this, server](const transact::Transactor& t) {
        app_.transactors_.push_back(TransactorRecord{&t, this, server});
      });
    }

    /// Records every ara::meta::EndToEndBudget declared on I against this
    /// (serving) node. Descriptors without budgets contribute nothing.
    template <typename I>
    void register_budgets() {
      if constexpr (ara::meta::has_end_to_end_budgets<I>) {
        for (const ara::meta::EndToEndBudget& budget : I::kEndToEndBudgets) {
          app_.budgets_.push_back(BudgetRecord{
              std::string(I::kInterface.name) + "." + budget.member, this,
              static_cast<Duration>(budget.budget_ns)});
        }
      }
    }

    AppBuilder& app_;
    std::string name_;
    ara::Runtime runtime_;
    reactor::Environment environment_;
    reactor::SimDriver driver_;
  };

  /// Declares an SWC process. Node references stay valid for the app's
  /// lifetime.
  Node& node(std::string name, net::Endpoint endpoint, someip::ClientId client_id) {
    Node& node = arena_.create<Node>(*this, std::move(name), endpoint, client_id);
    nodes_.push_back(&node);
    return node;
  }

  /// Assembles every node's reactor topology and starts the DES drivers.
  /// Call after all wiring; the kernel still needs to be run by the caller.
  void start() {
    for (Node* node : nodes_) {
      node->driver_.start();
    }
  }

  // --- app-wide protocol-error accounting -------------------------------------
  // (deadline_violations() etc. come from the TransactorStats mixin.)

  /// Invokes f(const transact::Transactor&) for every transactor declared
  /// through any node, in declaration order.
  template <typename F>
  void for_each_transactor(F&& f) const {
    for (const TransactorRecord& record : transactors_) {
      f(*record.transactor);
    }
  }

  /// Runs the static determinism verifier (src/analysis/) over the
  /// constructed application: extracts the fact table from every node's
  /// reactor graph plus the cross-binding channels, evaluates the
  /// structural rules, and throws analysis::AnalysisError when a finding
  /// passes the gate (kAll: any error; kStructural: graph/tag errors
  /// only — timing-budget findings stay in the report so deliberately
  /// out-of-envelope experiment runs can proceed). Call after wiring,
  /// before start(): it builds each node's reactor graph, which start()
  /// then assigns levels from, and freezes that node's wiring. Draws no
  /// rng stream and executes no event — digests cannot move.
  analysis::Report validate() const;  // gates on Gate::kAll
  analysis::Report validate(analysis::Gate gate) const;

  /// In declaration order.
  [[nodiscard]] std::span<Node* const> nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::span<const TransactorRecord> transactor_records() const noexcept {
    return transactors_;
  }
  [[nodiscard]] std::span<const BudgetRecord> budget_records() const noexcept {
    return budgets_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] sim::Kernel& kernel() noexcept { return kernel_; }

 private:
  /// A node takes about 5.5 KiB, its bundles as much again: the brake
  /// app fills this first block and part of a second.
  static constexpr std::size_t kArenaFirstBlockBytes = 64 * 1024;

  sim::Kernel& kernel_;
  net::Network& network_;
  someip::ServiceDiscovery& discovery_;
  common::Executor& dispatcher_;
  common::Rng& platform_rng_;
  Config config_;
  reactor::SimClock sim_clock_;
  /// The nodes and everything declared on them; destroyed before the
  /// clock their environments read.
  common::ObjectArena arena_{kArenaFirstBlockBytes};
  std::pmr::vector<Node*> nodes_{&arena_.memory()};
  std::pmr::vector<TransactorRecord> transactors_{&arena_.memory()};
  std::pmr::vector<BudgetRecord> budgets_{&arena_.memory()};
};

}  // namespace dear
