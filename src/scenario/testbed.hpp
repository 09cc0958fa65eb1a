// The simulated testbed every case-study pipeline runs on.
//
// A pipeline is its app — endpoints, logic reactors, service wiring,
// sensor front-end, fallback reactor and result observer — plus what is
// the same for every app. This module builds the latter once, from the
// platform knobs (scenario/knobs.hpp) and the timing every app shares:
//
//   - kSensorPeriod and kLinkLatencyMin/Max: the sensor cadence and the
//     inter-platform link of the paper's testbed;
//   - Testbed: the rng roots, the DES kernel, the simulated network (an
//     inter-platform default link plus the knob-driven service loopback
//     link), service discovery, the dispatcher, the settle drain, the
//     horizon, and the run lifecycle (preflight → structural validation →
//     start → settle → sensor → churn → horizon → teardown), each phase an
//     obs span of the scenario category;
//   - FaultTolerance: the service-fault plan anchored to the sensor
//     capture grid, the Health service with its heartbeat emitter and
//     supervisor, and the run's ft::Counters;
//   - transactor_config: the per-SWC transactor-config factory.
#pragma once

#include <cstdint>
#include <functional>

#include "ara/com/local_binding.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "dear/app_builder.hpp"
#include "dear/config.hpp"
#include "ft/fault_model.hpp"
#include "ft/health.hpp"
#include "net/sim_network.hpp"
#include "scenario/knobs.hpp"
#include "sim/clock_model.hpp"
#include "sim/kernel.hpp"
#include "sim/periodic_task.hpp"
#include "sim/sim_executor.hpp"
#include "someip/service_discovery.hpp"

namespace dear::scenario {

/// Sensor period of every case-study app: the paper's camera sends "one
/// [frame] approximately every 50 ms" (§IV.A), and the ACC radar scans at
/// the same cadence.
inline constexpr Duration kSensorPeriod = 50 * kMillisecond;
/// Latency range of the inter-platform default link, which carries the
/// sensor traffic (the service traffic rides the knob-driven loopback).
inline constexpr Duration kLinkLatencyMin = 200 * kMicrosecond;
inline constexpr Duration kLinkLatencyMax = 800 * kMicrosecond;

/// The transactor configuration of one SWC: its deadline scaled by the
/// knobs' deadline_scale, the clock-error bound E of its channels, and the
/// defaults for the rest (L = transact::kLatencyBound, untagged messages
/// fail).
[[nodiscard]] transact::TransactorConfig transactor_config(const PlatformKnobs& knobs,
                                                           Duration deadline,
                                                           Duration clock_error_bound);

class Testbed {
 public:
  /// `dispatch_jitter` bounds the dispatcher's wake-up delay for receive
  /// handlers. The knobs must outlive the testbed.
  explicit Testbed(const PlatformKnobs& knobs, Duration dispatch_jitter = 200 * kMicrosecond);

  /// Records the "app.teardown" span: result collection and the app's
  /// destruction, which (declared after the testbed) precedes this.
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Root of every platform-side stream (network, dispatch, execution
  /// costs, platform clocks).
  common::Rng platform_rng;
  /// Root of the sensor's input stream (capture timing, sensor faults).
  common::Rng sensor_rng;
  sim::Kernel kernel;
  net::SimNetwork network;
  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor;

  /// How long the service wiring drains before the sensor starts: event
  /// subscriptions are control messages crossing the service link, so a
  /// sample published right away could reach a server binding that does
  /// not know its subscribers yet — and whether it does would depend on
  /// platform-side latency draws. Real deployments sequence this through
  /// service discovery; the DES equivalent is a drain scaled to the link
  /// model.
  [[nodiscard]] Duration settle() const noexcept {
    return 5 * kMillisecond + 2 * knobs_.svc_latency_max;
  }

  /// End of a run whose sensor starts at `sensor_start`: every sample has
  /// flushed through the chain well before it.
  [[nodiscard]] TimePoint horizon(TimePoint sensor_start) const noexcept {
    return sensor_start + static_cast<TimePoint>(knobs_.frames + 16) * kSensorPeriod +
           16 * kSensorPeriod;
  }

  /// AppBuilder configuration: every service instance moves onto the
  /// testbed's in-process hub when the knobs select Transport::kLocal.
  [[nodiscard]] AppBuilder::Config app_config() noexcept;

  /// Nominal global release of sensor sample 0 for a sensor grid at
  /// `phase` on `clock`: the sensor starts after the settle drain, so
  /// earlier grid points are missed activations.
  [[nodiscard]] TimePoint first_release(const sim::PlatformClock& clock, Duration phase) const {
    return sim::first_release_at_or_after(clock, phase, kSensorPeriod, 0, settle()).release;
  }

  /// Runs a wired app: the preflight hook, then — unless build_only — the
  /// structural validation gate, start, the settle drain, `start_sensor`,
  /// the churn toggle on `churned` (when the knobs set a churn period) and
  /// the run to the horizon. Returns false when build_only stopped it
  /// before any event executed.
  template <typename Subscription>
  [[nodiscard]] bool run(AppBuilder& app, const RunHooks& hooks,
                         const std::function<void()>& start_sensor, Subscription& churned) {
    return execute(app, hooks, start_sensor, [&churned] {
      if (churned.subscribed()) {
        churned.unsubscribe();
      } else {
        churned.resubscribe();
      }
    });
  }

 private:
  bool execute(AppBuilder& app, const RunHooks& hooks, const std::function<void()>& start_sensor,
               const std::function<void()>& toggle_churn);

  const PlatformKnobs& knobs_;
  /// Start of the "app.build" span; -1 when scenario spans are off.
  std::int64_t build_start_ns_{-1};
  /// Start of the "app.teardown" span (the end of "app.run"); -1 when
  /// scenario spans are off or the run stopped before its events.
  std::int64_t teardown_start_ns_{-1};
  // The app, declared after the testbed, is destroyed before it: the
  // LocalBindings its nodes own detach from the hub on destruction.
  ara::com::LocalHub hub_;
};

/// The fault-tolerance layer of one run. It exists only when the knobs
/// inject a service fault (service_faults.any()); otherwise nothing is
/// installed, served or built, and the reactor graphs, fact tables and
/// digests are those of the plain app.
///
/// Declare it before the AppBuilder: the bindings hold a pointer to the
/// plan for the app's lifetime.
class FaultTolerance {
 public:
  /// `first_release` is the nominal global release of sensor sample 0
  /// (Testbed::first_release). crash_at counts from it, so which samples
  /// lose their traffic is a pure function of the knobs: the sensor
  /// clock's offset — a seed draw spanning a whole period — shifts every
  /// sensor tag, and an absolute window would let it shift window
  /// membership too. The health timers sit at fixed offsets from the same
  /// grid.
  FaultTolerance(const PlatformKnobs& knobs, TimePoint first_release);

  FaultTolerance(const FaultTolerance&) = delete;
  FaultTolerance& operator=(const FaultTolerance&) = delete;

  /// Timer of the app's fallback reactor: the app cadence, 3/8 period off
  /// the capture grid. Period 0 when the layer is off — the app then
  /// builds no fallback port.
  [[nodiscard]] Duration fallback_period() const noexcept { return on_ ? kSensorPeriod : 0; }
  [[nodiscard]] Duration fallback_phase() const noexcept {
    return anchor_ + kSensorPeriod / 4 + kSensorPeriod / 8;
  }

  /// Deploys the layer on a wired app, after its logic reactors: installs
  /// the plan on every node, serves ft::Health from `victim` and
  /// supervises it from `supervisor`. Returns the supervisor's health
  /// transitions for the app's fallback reactor, or nullptr when off.
  reactor::Output<ft::HealthState>* deploy(AppBuilder& app, AppBuilder::Node& victim,
                                           const transact::TransactorConfig& victim_config,
                                           AppBuilder::Node& supervisor,
                                           const transact::TransactorConfig& supervisor_config);

  /// The run's FT columns, given the retries of the app's tolerant proxies
  /// and the ticks its fallback served; also counted into obs.
  [[nodiscard]] ft::Counters counters(std::uint64_t retries, std::uint64_t degraded_ticks) const;

 private:
  bool on_;
  /// Capture-grid offset within one period.
  Duration anchor_;
  ft::FaultPlan plan_;
  const ft::Supervisor* supervisor_{nullptr};
};

}  // namespace dear::scenario
