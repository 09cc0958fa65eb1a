#include "acc/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_map>

#include "acc/logic.hpp"
#include "acc/services.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "ara/com/local_binding.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "dear/app_builder.hpp"
#include "dear/bundles.hpp"
#include "ft/health.hpp"
#include "net/sim_network.hpp"
#include "obs/obs.hpp"
#include "sim/clock_model.hpp"
#include "sim/periodic_task.hpp"
#include "sim/sim_executor.hpp"

namespace dear::acc {

namespace {

constexpr net::NodeId kPlatform = 1;

constexpr net::Endpoint kRadarEp{kPlatform, 301};
constexpr net::Endpoint kTrackerEp{kPlatform, 302};
constexpr net::Endpoint kAccEp{kPlatform, 303};
constexpr net::Endpoint kActuatorEp{kPlatform, 304};
constexpr net::Endpoint kConsoleEp{kPlatform, 305};

using common::mix_digest;

/// Coast-fallback commands carry a marker id (top 16 bits set) so the
/// actuator can account for them without consulting the reference chain:
/// there is no radar scan a coast tick corresponds to.
constexpr std::uint64_t kCoastMarker = 0xFFFF'0000'0000'0000ULL;

[[nodiscard]] constexpr bool is_coast_marker(std::uint64_t scan_id) noexcept {
  return (scan_id & kCoastMarker) == kCoastMarker;
}

// --- SWC logic reactors ----------------------------------------------------------

/// Radar logic: the sensor boundary. Scans arrive from the radar front-end
/// and are tagged with the physical time of reception.
class RadarLogic final : public reactor::Reactor {
 public:
  reactor::PhysicalAction<RadarScan> scan_arrival{"scan_arrival", this};
  reactor::Output<RadarScan> out{"out", this};

  RadarLogic(reactor::Environment& environment, sim::ExecTimeModel cost)
      : Reactor("radar_logic", environment) {
    add_reaction("on_scan", [this] { out.set(scan_arrival.get_ptr()); })
        .triggered_by(scan_arrival)
        .writes(out)
        .set_modeled_cost(cost);
  }
};

class TrackerLogic final : public reactor::Reactor {
 public:
  reactor::Input<RadarScan> scan_in{"scan_in", this};
  reactor::Output<TrackList> tracks_out{"tracks_out", this};

  TrackerLogic(reactor::Environment& environment, sim::ExecTimeModel cost)
      : Reactor("tracker_logic", environment) {
    add_reaction("on_scan", [this] { tracks_out.set(track_objects(scan_in.get())); })
        .triggered_by(scan_in)
        .writes(tracks_out)
        .set_modeled_cost(cost);
  }
};

/// ACC controller logic: owns the cruise set-point (the target_speed field
/// state lives *here*, in the reactor, which is what makes the field
/// deterministic) and computes a command per track list.
class AccLogic final : public reactor::Reactor {
 public:
  reactor::Input<TrackList> tracks_in{"tracks_in", this};
  reactor::Output<AccCommand> command_out{"command_out", this};

  // target_speed field server ports (wired to the ServerFieldTransactor).
  reactor::Input<reactor::Empty> get_request{"get_request", this};
  reactor::Output<double> get_response{"get_response", this};
  reactor::Input<double> set_request{"set_request", this};
  reactor::Output<double> set_response{"set_response", this};
  reactor::Output<double> notify_out{"notify_out", this};

  // Degraded-mode ports, created only when the fault-tolerance layer is
  // deployed (coast_period > 0): with FT off the reactor graph — and with
  // it the fact table and the golden digests — is unchanged.
  std::unique_ptr<reactor::Input<ft::HealthState>> health_in;

  AccLogic(reactor::Environment& environment, sim::ExecTimeModel cost, double initial_target,
           Duration coast_period = 0, Duration coast_phase = 0)
      : Reactor("acc_logic", environment), target_(initial_target) {
    // Set before compute: a same-tag set-point update applies to the
    // command computed at that tag.
    add_reaction("on_set",
                 [this] {
                   target_ = std::clamp(set_request.get(), kMinTargetSpeedKmh,
                                        kMaxTargetSpeedKmh);
                   set_response.set(target_);
                   notify_out.set(target_);
                 })
        .triggered_by(set_request)
        .writes(set_response)
        .writes(notify_out)
        .writes_state("acc.target_speed");
    add_reaction("on_get", [this] { get_response.set(target_); })
        .triggered_by(get_request)
        .writes(get_response)
        .reads_state("acc.target_speed");
    add_reaction("on_tracks",
                 [this] { command_out.set(decide_accel(tracks_in.get(), target_)); })
        .triggered_by(tracks_in)
        .writes(command_out)
        .reads_state("acc.target_speed")
        .set_modeled_cost(cost);
    if (coast_period > 0) {
      // Coast fallback: while the radar is dead (no scans, hence no
      // tracks), keep emitting hold-speed commands at the nominal cadence.
      // Both triggers (supervisor transitions, coast timer) are logical,
      // so degraded ticks land at reproducible tags.
      health_in = std::make_unique<reactor::Input<ft::HealthState>>("health_in", this);
      coast_timer_ = std::make_unique<reactor::Timer>("coast_timer", this, coast_period,
                                                      coast_phase > 0 ? coast_phase : coast_period);
      add_reaction("on_health", [this] { health_ = health_in->get(); })
          .triggered_by(*health_in)
          .writes_state("acc.health");
      add_reaction("on_coast",
                   [this] {
                     if (health_ != ft::HealthState::kDead) {
                       return;
                     }
                     AccCommand command;
                     command.scan_id = kCoastMarker | coast_tick_++;
                     command.target_speed_kmh = target_;
                     command_out.set(command);
                   })
          .triggered_by(*coast_timer_)
          .writes(command_out)
          .reads_state("acc.target_speed")
          .reads_state("acc.health");
    }
  }

 private:
  double target_;
  std::unique_ptr<reactor::Timer> coast_timer_;
  ft::HealthState health_{ft::HealthState::kHealthy};
  std::uint64_t coast_tick_{0};
};

class ActuatorLogic final : public reactor::Reactor {
 public:
  reactor::Input<AccCommand> command_in{"command_in", this};

  using Observer = std::function<void(const AccCommand&, const reactor::Tag&)>;

  ActuatorLogic(reactor::Environment& environment, sim::ExecTimeModel cost, Observer observer)
      : Reactor("actuator_logic", environment), observer_(std::move(observer)) {
    add_reaction("on_command", [this] { observer_(command_in.get(), current_tag()); })
        .triggered_by(command_in)
        .set_modeled_cost(cost);
  }

 private:
  Observer observer_;
};

/// Driver console: periodically polls the set-point (field get) and steps
/// it through a deterministic profile (field set); also observes change
/// notifications. Everything is timer-driven, hence logical and
/// reproducible.
class ConsoleLogic final : public reactor::Reactor {
 public:
  reactor::Output<reactor::Empty> get_request{"get_request", this};
  reactor::Input<double> get_response{"get_response", this};
  reactor::Output<double> set_request{"set_request", this};
  reactor::Input<double> set_response{"set_response", this};
  reactor::Input<double> notify_in{"notify_in", this};

  std::uint64_t gets{0};
  std::uint64_t sets{0};
  std::uint64_t notifies{0};
  std::uint64_t digest{0};

  ConsoleLogic(reactor::Environment& environment, Duration poll_period, Duration update_period)
      : Reactor("console_logic", environment),
        poll_timer_("poll_timer", this, poll_period, poll_period / 2),
        update_timer_("update_timer", this, update_period, update_period) {
    add_reaction("poll", [this] { get_request.set(reactor::Empty{}); })
        .triggered_by(poll_timer_)
        .writes(get_request);
    add_reaction("update",
                 [this] {
                   // A deterministic set-point profile sweeping the legal
                   // range (and deliberately overshooting it once per
                   // cycle to exercise the controller's clamping).
                   static constexpr double kProfile[] = {110.0, 70.0, 150.0, 50.0, 90.0, 20.0};
                   set_request.set(kProfile[update_index_++ % std::size(kProfile)]);
                 })
        .triggered_by(update_timer_)
        .writes(set_request);
    add_reaction("on_get_response",
                 [this] {
                   ++gets;
                   mix_digest(digest, static_cast<std::uint64_t>(get_response.get() * 100.0));
                 })
        .triggered_by(get_response);
    add_reaction("on_set_response",
                 [this] {
                   ++sets;
                   mix_digest(digest, static_cast<std::uint64_t>(set_response.get() * 100.0) + 1);
                 })
        .triggered_by(set_response);
    add_reaction("on_notify",
                 [this] {
                   ++notifies;
                   mix_digest(digest, static_cast<std::uint64_t>(notify_in.get() * 100.0) + 2);
                 })
        .triggered_by(notify_in);
  }

 private:
  reactor::Timer poll_timer_;
  reactor::Timer update_timer_;
  std::size_t update_index_{0};
};

}  // namespace

AccResult run_acc_pipeline(const AccScenarioConfig& config) {
  common::Rng platform_rng(config.platform_seed);
  common::Rng radar_rng(config.sensor_seed);

  sim::Kernel kernel;
  net::SimNetwork network(kernel, platform_rng.stream("net"));
  net::LinkParams link;
  link.latency = sim::ExecTimeModel::uniform(config.link_latency_min, config.link_latency_max);
  network.set_default_link(link);
  // The whole chain is co-located, so every service message rides the
  // loopback link — the surface the scenario engine's fault knobs stress.
  net::LinkParams svc_link;
  svc_link.latency = sim::ExecTimeModel::uniform(config.svc_latency_min, config.svc_latency_max);
  svc_link.drop_probability = config.net_drop_probability;
  svc_link.duplicate_probability = config.net_duplicate_probability;
  svc_link.enforce_in_order = config.net_in_order;
  network.set_loopback_link(svc_link);

  someip::ServiceDiscovery discovery;
  sim::SimExecutor executor(kernel, platform_rng.stream("dispatch"));

  ara::com::LocalHub hub;

  // Radar activation grid, fixed before the fault plan: the injection
  // window and the health timers are anchored to it (cf. the brake
  // pipeline — identical crash_at semantics on both workloads). Draws are
  // sequenced explicitly: as constructor arguments their evaluation order
  // would be compiler-dependent.
  auto radar_cfg_rng = radar_rng.stream("radar");
  const Duration radar_clock_offset = radar_cfg_rng.uniform_duration(0, config.period);
  const double radar_clock_drift =
      radar_cfg_rng.uniform(-1000, 1000) * 1e-3 * config.clock_drift_ppm;
  const sim::PlatformClock radar_clock(radar_clock_offset, radar_clock_drift);
  const Duration radar_phase = radar_cfg_rng.uniform_duration(0, config.period - 1);

  // The radar starts once the service wiring has settled (see below), so
  // grid points before `settle` are missed activations. Replicating
  // PeriodicTask's arm rule here yields the nominal global release of
  // scan 0 — jitter delays individual releases but never moves the grid.
  const Duration settle = 5 * kMillisecond + 2 * config.svc_latency_max;
  TimePoint first_scan = radar_clock.global_from_local(radar_phase);
  for (TimePoint k = 1; first_scan < settle; ++k) {
    first_scan = radar_clock.global_from_local(radar_phase + k * config.period);
  }

  // Fault-injection plan shared read-only by every binding in the chain.
  // Declared before the AppBuilder so it outlives the node runtimes that
  // hold a pointer to it. The radar node is the victim: crashing the
  // sensor boundary exercises the consumer-side degradation path.
  //
  // The down window counts from scan 0's nominal release, so which scans
  // lose their traffic is a pure function of the scenario knobs — the
  // radar clock's offset cannot shift window membership.
  const bool ft_on = config.service_faults.any();
  ft::FaultPlan fault_plan;
  fault_plan.victim = kRadarEp;
  fault_plan.down_from =
      config.service_faults.crash_at > 0 ? first_scan + config.service_faults.crash_at
                                         : Duration{0};
  fault_plan.down_until =
      fault_plan.down_from > 0 && config.service_faults.restart_after > 0
          ? fault_plan.down_from + config.service_faults.restart_after
          : Duration{0};
  fault_plan.call_error_probability = config.service_faults.call_error_probability;
  fault_plan.call_omission_probability = config.service_faults.call_omission_probability;
  fault_plan.fault_seed = config.fault_seed;

  // Health timers ride the same anchor, offset to sit strictly between
  // the chain's wire-tag grid (scans land at the grid +{5, 25, 35, 40}ms
  // mod period, window boundaries at +period/2): beats a quarter period
  // off the grid, supervisor checks at +period/4, coast ticks at +3/8.
  const Duration ft_anchor = first_scan % config.period;

  const auto make_config = [&](Duration deadline) {
    transact::TransactorConfig tc;
    tc.deadline = scale_duration(deadline, config.deadline_scale);
    tc.latency_bound = config.latency_bound;
    tc.clock_error_bound = config.clock_error_bound;
    tc.untagged = config.untagged;
    return tc;
  };

  AppBuilder::Config app_config;
  app_config.local_hub = config.transport == scenario::Transport::kLocal ? &hub : nullptr;
  AppBuilder app(kernel, network, discovery, executor, platform_rng, app_config);

  auto& radar = app.node("radar", kRadarEp, 0x31);
  auto& tracker = app.node("tracker", kTrackerEp, 0x32);
  auto& acc = app.node("acc", kAccEp, 0x33);
  auto& actuator = app.node("actuator", kActuatorEp, 0x34);
  auto& console = app.node("console", kConsoleEp, 0x35);

  // The plan hooks live in every binding either way; installing an inert
  // plan (ft_idle_probe) measures their cost on the undisturbed hot path.
  if (ft_on || config.ft_idle_probe) {
    for (auto* node : {&radar, &tracker, &acc, &actuator, &console}) {
      node->runtime().set_fault_plan(&fault_plan);
    }
  }

  // Servers first (offered on construction), then clients.
  auto& radar_srv = radar.serve<Radar>(kInstance, make_config(config.radar_deadline));
  auto& tracker_srv = tracker.serve<Tracker>(kInstance, make_config(config.tracker_deadline));
  auto& acc_srv = acc.serve<AccController>(kInstance, make_config(config.acc_deadline));
  // Health monitoring rides the same descriptor machinery as the chain
  // services: the victim offers the heartbeat stream, the controller node
  // supervises it (wired below, after the logic reactors exist).
  transact::ServerSide<ft::Health>* health_srv = nullptr;
  if (ft_on) {
    health_srv = &radar.serve<ft::Health>(kInstance, make_config(config.radar_deadline));
  }

  auto& tracker_cli = tracker.require<Radar>(kInstance, make_config(config.tracker_deadline));
  auto& acc_cli = acc.require<Tracker>(kInstance, make_config(config.acc_deadline));
  auto& actuator_cli =
      actuator.require<AccController>(kInstance, make_config(config.actuator_deadline));
  auto& console_cli =
      console.require<AccController>(kInstance, make_config(config.console_deadline));
  transact::ClientSide<ft::Health>* health_cli = nullptr;
  if (ft_on) {
    health_cli = &acc.require<ft::Health>(kInstance, make_config(config.acc_deadline));
  }
  if (config.retry.enabled()) {
    // Field get/set are methods on the wire; the console's proxy retries
    // them with the deterministic logical backoff.
    console_cli.proxy().set_retry_policy(config.retry);
  }

  const double ts = config.exec_time_scale;
  const auto light_cost =
      sim::ExecTimeModel::normal(500 * kMicrosecond, 150 * kMicrosecond, 100 * kMicrosecond,
                                 2 * kMillisecond)
          .scaled(ts);
  const auto tracker_cost =
      sim::ExecTimeModel::normal(8 * kMillisecond, 1 * kMillisecond, 4 * kMillisecond,
                                 15 * kMillisecond)
          .scaled(ts);
  const auto acc_cost =
      sim::ExecTimeModel::normal(4 * kMillisecond, 800 * kMicrosecond, 2 * kMillisecond,
                                 8 * kMillisecond)
          .scaled(ts);

  AccResult result;
  std::unordered_map<std::uint64_t, TimePoint> arrival_time;

  auto& radar_logic = radar.logic<RadarLogic>(light_cost);
  auto& tracker_logic = tracker.logic<TrackerLogic>(tracker_cost);
  auto& acc_logic = acc.logic<AccLogic>(acc_cost, 100.0, ft_on ? config.period : Duration{0},
                                        ft_anchor + config.period / 4 + config.period / 8);
  auto& actuator_logic = actuator.logic<ActuatorLogic>(
      light_cost, [&](const AccCommand& command, const reactor::Tag& tag) {
        if (is_coast_marker(command.scan_id)) {
          // Degraded tick: no reference command exists (there was no scan);
          // the marker and the held set-point still enter the digest so a
          // nondeterministic fallback could not hide.
          ++result.ft_degraded_ticks;
          mix_digest(result.output_digest, command.scan_id);
          mix_digest(result.output_digest,
                     static_cast<std::uint64_t>(command.target_speed_kmh * 100.0));
          return;
        }
        ++result.commands;
        if (command.braking) {
          ++result.brake_interventions;
        }
        if (command != reference_command(command.scan_id, command.target_speed_kmh)) {
          ++result.wrong_commands;
        }
        mix_digest(result.output_digest, command.scan_id);
        // accel_mps2 is negative for decelerations: go through int64_t (a
        // direct negative-double→uint64_t cast is UB / float-cast-overflow).
        mix_digest(result.output_digest,
                   static_cast<std::uint64_t>(static_cast<std::int64_t>(command.accel_mps2 * 1e6)));
        mix_digest(result.output_digest, command.braking ? 1 : 0);
        mix_digest(result.output_digest,
                   static_cast<std::uint64_t>(command.target_speed_kmh * 100.0));
        const auto it = arrival_time.find(command.scan_id);
        if (it != arrival_time.end()) {
          mix_digest(result.tag_digest, static_cast<std::uint64_t>(tag.time - it->second));
          mix_digest(result.tag_digest, tag.microstep);
          arrival_time.erase(it);
        }
      });
  auto& console_logic =
      console.logic<ConsoleLogic>(config.console_poll_period, config.console_update_period);

  ft::Supervisor* supervisor = nullptr;
  if (ft_on) {
    auto& beat_src = radar.logic<ft::HeartbeatEmitter>(
        config.period, ft_anchor + config.period + config.period / 4);
    radar.connect(beat_src.out, health_srv->tx(ft::Health::beat).in);
    // Staleness thresholds scale with the chain cadence: one missed beat
    // is tolerated, ~2.5 periods without beats counts as degraded, four as
    // dead (engaging the coast fallback).
    ft::SupervisorConfig sup_config;
    sup_config.check_period = config.period;
    sup_config.check_phase = ft_anchor + config.period / 4;
    sup_config.degraded_after = 2 * config.period + config.period / 2;
    sup_config.dead_after = 4 * config.period;
    supervisor = &acc.logic<ft::Supervisor>(sup_config);
    acc.connect(health_cli->tx(ft::Health::beat).out, supervisor->beat_in);
    acc.connect(supervisor->state_out, *acc_logic.health_in);
  }

  // --- wiring: all of it derived from the descriptors -------------------------
  radar.connect(radar_logic.out, radar_srv.tx(Radar::scan).in);

  tracker.connect(tracker_cli.tx(Radar::scan).out, tracker_logic.scan_in);
  tracker.connect(tracker_logic.tracks_out, tracker_srv.tx(Tracker::tracks).in);

  acc.connect(acc_cli.tx(Tracker::tracks).out, acc_logic.tracks_in);
  acc.connect(acc_logic.command_out, acc_srv.tx(AccController::command).in);
  auto& field_srv = acc_srv.tx(AccController::target_speed);
  acc.connect(field_srv.get.request, acc_logic.get_request);
  acc.connect(acc_logic.get_response, field_srv.get.response);
  acc.connect(field_srv.set.request, acc_logic.set_request);
  acc.connect(acc_logic.set_response, field_srv.set.response);
  acc.connect(acc_logic.notify_out, field_srv.notify.in);

  actuator.connect(actuator_cli.tx(AccController::command).out, actuator_logic.command_in);

  auto& field_cli = console_cli.tx(AccController::target_speed);
  console.connect(console_logic.get_request, field_cli.get.request);
  console.connect(field_cli.get.response, console_logic.get_response);
  console.connect(console_logic.set_request, field_cli.set.request);
  console.connect(field_cli.set.response, console_logic.set_response);
  console.connect(field_cli.notify.out, console_logic.notify_in);

  // --- the radar front-end -----------------------------------------------------
  sim::SensorFaultInjector radar_faults(config.sensor_faults, radar_rng.stream("radar.faults"));
  std::uint64_t captures = 0;
  std::uint64_t scans_sent = 0;
  std::optional<RadarScan> last_scan;
  sim::PeriodicTask radar_task(
      kernel, radar_clock, config.period, radar_phase,
      [&](std::uint64_t /*activation*/, TimePoint release) {
        if (captures >= config.frames) {
          return;
        }
        // Scan ids are capture ordinals (cf. brake::Camera): the input
        // stream 0..N-1 must not depend on where the radar clock's offset
        // lands the periodic grid.
        const std::uint64_t scan_id = captures++;
        RadarScan scan = generate_scan(scan_id, radar_clock.local_now(release));
        switch (radar_faults.next()) {
          case sim::SensorFaultInjector::Outcome::kDrop:
            return;
          case sim::SensorFaultInjector::Outcome::kStuck:
            if (last_scan.has_value()) {
              scan = *last_scan;
            }
            break;
          case sim::SensorFaultInjector::Outcome::kNoisy:
            // Corrupted reflections: the returns of a different (perturbed)
            // scan under the sample's own identity.
            scan.returns = generate_scan(scan.scan_id ^ radar_faults.noise_word(), 0).returns;
            break;
          case sim::SensorFaultInjector::Outcome::kNominal:
            break;
        }
        last_scan = scan;
        ++scans_sent;
        arrival_time.emplace(scan.scan_id, kernel.now());
        radar_logic.scan_arrival.schedule(scan);
      });
  radar_task.set_jitter(sim::ExecTimeModel::uniform(0, config.radar_jitter),
                        radar_rng.stream("radar.jitter"));

  // --- static pre-flight --------------------------------------------------------
  if (config.preflight) {
    config.preflight(app);
  }
  if (config.build_only) {
    return result;
  }
  // Consume the compiled level tables (when a plan is supplied) before the
  // environments assemble; a stale plan throws here, before any event runs.
  if (config.schedule_plan != nullptr) {
    app.apply_schedule_plans(*config.schedule_plan);
  }
  // Fail fast on structural determinism violations before any event runs.
  // The structural gate lets deliberately tightened deadline budgets through:
  // those runs are out-of-envelope experiments whose misses the error
  // counters must observe.
  app.validate(analysis::Gate::kStructural);

  app.start();

  // Let the service wiring settle before the sensor streams: event
  // subscriptions are SOME/IP control messages that traverse the simulated
  // network, so a scan published at t≈0 would reach a server binding that
  // does not know its subscribers yet. Real deployments sequence this
  // through service discovery; the DES equivalent is a short drain scaled
  // to the service-link model.
  kernel.run_until(settle);
  radar_task.start();

  // Subscription churn: toggle the actuator's command subscription at a
  // fixed physical cadence. The toggle windows are physical time, so churn
  // scenarios are excluded from the digest-invariance groups; the claim
  // under test is error accounting, not bit-identical output.
  std::function<void()> churn_toggle;
  if (config.service_faults.churn_period > 0) {
    churn_toggle = [&] {
      auto& rx = actuator_cli.tx(AccController::command);
      if (rx.subscribed()) {
        rx.unsubscribe();
      } else {
        rx.resubscribe();
      }
      kernel.schedule_after(config.service_faults.churn_period, [&] { churn_toggle(); });
    };
    kernel.schedule_after(config.service_faults.churn_period, [&] { churn_toggle(); });
  }

  const TimePoint horizon = settle +
                            static_cast<TimePoint>(config.frames + 16) * config.period +
                            16 * config.period;
  kernel.run_until(horizon);
  radar_task.stop();

  // --- collect results ----------------------------------------------------------
  result.scans_sent = scans_sent;
  result.sensor_dropped = radar_faults.dropped_samples();
  result.sensor_stuck = radar_faults.stuck_samples();
  result.sensor_noisy = radar_faults.noisy_samples();
  result.field_gets = console_logic.gets;
  result.field_sets = console_logic.sets;
  result.field_notifies = console_logic.notifies;
  result.console_digest = console_logic.digest;
  result.deadline_violations = app.deadline_violations();
  result.tardy_messages = app.tardy_messages();
  result.untagged_messages = app.untagged_messages();
  result.dropped_messages = app.dropped_messages();
  result.remote_errors = app.remote_errors();

  result.ft_crash_drops = fault_plan.crash_drops.load(std::memory_order_relaxed);
  result.ft_call_faults = fault_plan.call_errors.load(std::memory_order_relaxed) +
                          fault_plan.call_omissions.load(std::memory_order_relaxed);
  result.ft_retries = console_cli.proxy().retries();
  // ft_degraded_ticks accumulated in the actuator observer.
  result.ft_failovers = supervisor != nullptr ? supervisor->failovers() : 0;
  obs::count(obs::Counter::kFtCrashDrops, result.ft_crash_drops);
  obs::count(obs::Counter::kFtCallFaults, result.ft_call_faults);
  obs::count(obs::Counter::kFtDegradedTicks, result.ft_degraded_ticks);
  return result;
}

}  // namespace dear::acc
