#include "acc/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_map>

#include "acc/logic.hpp"
#include "acc/services.hpp"
#include "common/digest.hpp"
#include "dear/app_builder.hpp"
#include "dear/bundles.hpp"
#include "ft/health.hpp"
#include "scenario/testbed.hpp"
#include "sim/clock_model.hpp"
#include "sim/periodic_task.hpp"

namespace dear::acc {

namespace {

constexpr net::NodeId kPlatform = 1;

constexpr net::Endpoint kRadarEp{kPlatform, 301};
constexpr net::Endpoint kTrackerEp{kPlatform, 302};
constexpr net::Endpoint kAccEp{kPlatform, 303};
constexpr net::Endpoint kActuatorEp{kPlatform, 304};
constexpr net::Endpoint kConsoleEp{kPlatform, 305};

/// Radar release jitter bound.
constexpr Duration kRadarJitter = 500 * kMicrosecond;

// Transactor deadlines, scaled by the deadline_scale knob.
constexpr Duration kRadarDeadline = 5 * kMillisecond;
constexpr Duration kTrackerDeadline = 20 * kMillisecond;
constexpr Duration kAccDeadline = 10 * kMillisecond;
constexpr Duration kActuatorDeadline = 5 * kMillisecond;
constexpr Duration kConsoleDeadline = 5 * kMillisecond;

/// Console cadence: how often the set-point is polled resp. stepped
/// through the field's get/set methods (logical time).
constexpr Duration kConsolePollPeriod = 500 * kMillisecond;
constexpr Duration kConsoleUpdatePeriod = 2000 * kMillisecond;

using common::mix_digest;
using scenario::kSensorPeriod;

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
  scenario::Testbed testbed(config);
  sim::Kernel& kernel = testbed.kernel;

  // Radar activation grid, fixed before the fault plan: the injection
  // window and the health timers are anchored to it (cf. the brake
  // pipeline — identical crash_at semantics on both workloads). Draws are
  // sequenced explicitly: as constructor arguments their evaluation order
  // would be compiler-dependent.
  auto radar_cfg_rng = testbed.sensor_rng.stream("radar");
  const Duration radar_clock_offset = radar_cfg_rng.uniform_duration(0, kSensorPeriod);
  const double radar_clock_drift =
      radar_cfg_rng.uniform(-1000, 1000) * 1e-3 * config.clock_drift_ppm;
  const sim::PlatformClock radar_clock(radar_clock_offset, radar_clock_drift);
  const Duration radar_phase = radar_cfg_rng.uniform_duration(0, kSensorPeriod - 1);

  // The radar node is the service-fault victim: crashing the sensor
  // boundary exercises the consumer-side degradation path.
  scenario::FaultTolerance fault_tolerance(config, testbed.first_release(radar_clock, radar_phase));

  const auto make_config = [&](Duration deadline) {
    return scenario::transactor_config(config, deadline, /*clock_error_bound=*/0);
  };

  AppBuilder app(kernel, testbed.network, testbed.discovery, testbed.executor,
                 testbed.platform_rng, testbed.app_config());

  auto& radar = app.node("radar", kRadarEp, 0x31);
  auto& tracker = app.node("tracker", kTrackerEp, 0x32);
  auto& acc = app.node("acc", kAccEp, 0x33);
  auto& actuator = app.node("actuator", kActuatorEp, 0x34);
  auto& console = app.node("console", kConsoleEp, 0x35);

  // Servers first (offered on construction), then clients.
  auto& radar_srv = radar.serve<Radar>(kInstance, make_config(kRadarDeadline));
  auto& tracker_srv = tracker.serve<Tracker>(kInstance, make_config(kTrackerDeadline));
  auto& acc_srv = acc.serve<AccController>(kInstance, make_config(kAccDeadline));

  auto& tracker_cli = tracker.require<Radar>(kInstance, make_config(kTrackerDeadline));
  auto& acc_cli = acc.require<Tracker>(kInstance, make_config(kAccDeadline));
  auto& actuator_cli = actuator.require<AccController>(kInstance, make_config(kActuatorDeadline));
  auto& console_cli = console.require<AccController>(kInstance, make_config(kConsoleDeadline));
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
  auto& acc_logic = acc.logic<AccLogic>(acc_cost, 100.0, fault_tolerance.fallback_period(),
                                        fault_tolerance.fallback_phase());
  auto& actuator_logic = actuator.logic<ActuatorLogic>(
      light_cost, [&](const AccCommand& command, const reactor::Tag& tag) {
        if (is_coast_marker(command.scan_id)) {
          // Degraded tick: no reference command exists (there was no scan);
          // the marker and the held set-point still enter the digest so a
          // nondeterministic fallback could not hide.
          ++result.ft.degraded_ticks;
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
  auto& console_logic = console.logic<ConsoleLogic>(kConsolePollPeriod, kConsoleUpdatePeriod);

  // The controller node supervises the radar; the coast fallback listens.
  if (auto* health = fault_tolerance.deploy(app, radar, make_config(kRadarDeadline), acc,
                                            make_config(kAccDeadline))) {
    acc.connect(*health, *acc_logic.health_in);
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
  sim::SensorFaultInjector radar_faults(config.sensor_faults,
                                        testbed.sensor_rng.stream("radar.faults"));
  std::uint64_t captures = 0;
  std::uint64_t scans_sent = 0;
  std::optional<RadarScan> last_scan;
  sim::PeriodicTask radar_task(
      kernel, radar_clock, kSensorPeriod, radar_phase,
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
  radar_task.set_jitter(sim::ExecTimeModel::uniform(0, kRadarJitter),
                        testbed.sensor_rng.stream("radar.jitter"));

  // Churn toggles the actuator's command subscription.
  if (!testbed.run(app, config, [&] { radar_task.start(); },
                   actuator_cli.tx(AccController::command))) {
    return result;
  }
  radar_task.stop();

  // --- collect results ----------------------------------------------------------
  result.scans_sent = scans_sent;
  result.sensor_faults = radar_faults.counts();
  result.field_gets = console_logic.gets;
  result.field_sets = console_logic.sets;
  result.field_notifies = console_logic.notifies;
  result.console_digest = console_logic.digest;
  result.deadline_violations = app.deadline_violations();
  result.tardy_messages = app.tardy_messages();
  result.untagged_messages = app.untagged_messages();
  result.dropped_messages = app.dropped_messages();
  result.remote_errors = app.remote_errors();
  result.ft = fault_tolerance.counters(console_cli.proxy().retries(), result.ft.degraded_ticks);
  return result;
}

}  // namespace dear::acc
