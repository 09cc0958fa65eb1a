#include "brake/dear_pipeline.hpp"

#include <array>
#include <functional>
#include <memory>
#include <optional>

#include "brake/camera.hpp"
#include "brake/deployment.hpp"
#include "brake/logic.hpp"
#include "brake/services.hpp"
#include "common/digest.hpp"
#include "dear/app_builder.hpp"
#include "dear/bundles.hpp"
#include "ft/health.hpp"
#include "scenario/testbed.hpp"
#include "sim/clock_model.hpp"

namespace dear::brake {

namespace {

// Paper §IV.B deadlines, scaled by the deadline_scale knob ("for certain
// applications it is acceptable to deliberately introduce the possibility
// of sporadic errors by setting deadlines to values lower than the actual
// WCET").
constexpr Duration kAdapterDeadline = 5 * kMillisecond;
constexpr Duration kPreprocessingDeadline = 25 * kMillisecond;
constexpr Duration kCvDeadline = 25 * kMillisecond;
constexpr Duration kEbaDeadline = 5 * kMillisecond;

using common::mix_digest;

/// Physical arrival time at the adapter of the frames still in flight, by
/// frame id. A fixed ring: frame k's slot is reused by frame k + 256, which
/// evicts the entries of frames lost to faults (they never reach EBA)
/// without a per-frame allocation. A frame in flight that long would take
/// 256 sensor periods (12.8 s at the 50 ms default), far beyond what the
/// transactors' deadlines and latency bounds admit.
class ArrivalTimes {
 public:
  /// Records the first arrival of `frame_id`: a duplicate (network
  /// duplication, or a stuck sensor re-delivering the previous frame)
  /// keeps the earlier time while that frame is in flight.
  void record(std::uint64_t frame_id, TimePoint now) {
    Slot& slot = slots_[frame_id % slots_.size()];
    if (!slot.occupied || slot.frame_id != frame_id) {
      slot = Slot{frame_id, now, true};
    }
  }

  /// Removes and returns the arrival time of `frame_id`, if recorded.
  std::optional<TimePoint> take(std::uint64_t frame_id) {
    Slot& slot = slots_[frame_id % slots_.size()];
    if (!slot.occupied || slot.frame_id != frame_id) {
      return std::nullopt;
    }
    slot.occupied = false;
    return slot.time;
  }

 private:
  struct Slot {
    std::uint64_t frame_id{0};
    TimePoint time{0};
    bool occupied{false};
  };
  std::array<Slot, 256> slots_{};
};

// --- SWC logic reactors ----------------------------------------------------------

/// Video Adapter logic: a sensor reactor. Frames arrive sporadically over
/// the proprietary protocol and are tagged with physical reception time.
class AdapterLogic final : public reactor::Reactor {
 public:
  reactor::PhysicalAction<VideoFrame> frame_arrival{"frame_arrival", this};
  reactor::Output<VideoFrame> out{"out", this};

  AdapterLogic(reactor::Environment& environment, sim::ExecTimeModel cost)
      : Reactor("adapter_logic", environment) {
    add_reaction("on_frame", [this] { out.set(frame_arrival.get_ptr()); })
        .triggered_by(frame_arrival)
        .writes(out)
        .set_modeled_cost(cost);
  }
};

class PreprocessingLogic final : public reactor::Reactor {
 public:
  reactor::Input<VideoFrame> frame_in{"frame_in", this};
  reactor::Output<LaneInfo> lane_out{"lane_out", this};
  reactor::Output<VideoFrame> frame_fwd{"frame_fwd", this};

  PreprocessingLogic(reactor::Environment& environment, sim::ExecTimeModel cost)
      : Reactor("preprocessing_logic", environment) {
    add_reaction("on_frame",
                 [this] {
                   lane_out.set(detect_lane(frame_in.get()));
                   frame_fwd.set(frame_in.get_ptr());
                 })
        .triggered_by(frame_in)
        .writes(lane_out)
        .writes(frame_fwd)
        .set_modeled_cost(cost);
  }
};

class ComputerVisionLogic final : public reactor::Reactor {
 public:
  reactor::Input<VideoFrame> frame_in{"frame_in", this};
  reactor::Input<LaneInfo> lane_in{"lane_in", this};
  reactor::Output<VehicleList> vehicles_out{"vehicles_out", this};

  std::uint64_t input_mismatches{0};

  ComputerVisionLogic(reactor::Environment& environment, sim::ExecTimeModel cost)
      : Reactor("cv_logic", environment) {
    // One reaction triggered by either input; "the reaction that calls its
    // logic expects to receive two events with the same tag at both
    // inputs. If only one input is received, this is considered an error"
    // (paper §IV.B).
    add_reaction("on_inputs",
                 [this] {
                   if (!frame_in.is_present() || !lane_in.is_present()) {
                     ++input_mismatches;
                     return;
                   }
                   if (frame_in.get().frame_id != lane_in.get().frame_id) {
                     ++input_mismatches;
                     return;
                   }
                   vehicles_out.set(detect_vehicles(frame_in.get(), lane_in.get()));
                 })
        .triggered_by(frame_in)
        .triggered_by(lane_in)
        .writes(vehicles_out)
        .set_modeled_cost(cost);
  }
};

class EbaLogic final : public reactor::Reactor {
 public:
  reactor::Input<VehicleList> vehicles_in{"vehicles_in", this};
  reactor::Output<BrakeCommand> brake_out{"brake_out", this};

  using Observer = std::function<void(const VehicleList&, const BrakeCommand&, const reactor::Tag&)>;
  /// Invoked for every hold-fallback re-emission (no vehicle list exists).
  using HoldObserver = std::function<void(const BrakeCommand&, const reactor::Tag&)>;

  // Degraded-mode port, created only when the fault-tolerance layer is
  // deployed (hold_period > 0): with FT off the reactor graph — and with
  // it the fact table and the golden digests — is unchanged.
  std::unique_ptr<reactor::Input<ft::HealthState>> health_in;

  EbaLogic(reactor::Environment& environment, sim::ExecTimeModel cost, Observer observer,
           Duration hold_period = 0, HoldObserver hold_observer = {}, Duration hold_phase = 0)
      : Reactor("eba_logic", environment),
        observer_(std::move(observer)),
        hold_observer_(std::move(hold_observer)) {
    auto& on_vehicles = add_reaction("on_vehicles",
                                     [this] {
                                       const BrakeCommand command = decide_brake(vehicles_in.get());
                                       last_command_ = command;
                                       brake_out.set(command);
                                       observer_(vehicles_in.get(), command, current_tag());
                                     })
                            .triggered_by(vehicles_in)
                            .writes(brake_out);
    on_vehicles.set_modeled_cost(cost);
    if (hold_period > 0) {
      // The state annotation exists only alongside the fallback reader, so
      // the FT-off fact table stays byte-identical to before.
      on_vehicles.writes_state("eba.last_command");
      // Hold fallback: while computer vision is dead, keep re-emitting the
      // last safe brake command at the nominal cadence. Both triggers
      // (supervisor transitions, hold timer) are logical, so degraded
      // ticks land at reproducible tags.
      health_in = std::make_unique<reactor::Input<ft::HealthState>>("health_in", this);
      hold_timer_ = std::make_unique<reactor::Timer>("hold_timer", this, hold_period,
                                                     hold_phase > 0 ? hold_phase : hold_period);
      add_reaction("on_health", [this] { health_ = health_in->get(); })
          .triggered_by(*health_in)
          .writes_state("eba.health");
      add_reaction("on_hold",
                   [this] {
                     if (health_ != ft::HealthState::kDead || !last_command_.has_value()) {
                       return;
                     }
                     brake_out.set(*last_command_);
                     if (hold_observer_) {
                       hold_observer_(*last_command_, current_tag());
                     }
                   })
          .triggered_by(*hold_timer_)
          .writes(brake_out)
          .reads_state("eba.last_command")
          .reads_state("eba.health");
    }
  }

 private:
  Observer observer_;
  HoldObserver hold_observer_;
  std::unique_ptr<reactor::Timer> hold_timer_;
  ft::HealthState health_{ft::HealthState::kHealthy};
  std::optional<BrakeCommand> last_command_;
};

}  // namespace

PipelineResult run_dear_pipeline(const DearScenarioConfig& config) {
  scenario::Testbed testbed(config);
  sim::Kernel& kernel = testbed.kernel;

  // Camera on platform 1 with its own clock; platform 2 hosts the SWCs.
  // The two draws are sequenced explicitly: as constructor arguments their
  // evaluation order would be compiler-dependent, and every stream draw
  // must be a pure function of (seed, draw index).
  auto drift_rng = testbed.platform_rng.stream("clock.drift");
  const Duration clock1_offset = drift_rng.uniform_duration(0, scenario::kSensorPeriod);
  const double clock1_drift = drift_rng.uniform(-1000, 1000) * 1e-3 * config.clock_drift_ppm;
  const sim::PlatformClock clock1(clock1_offset, clock1_drift);
  // Platform 2 is the simulation reference clock (its SWCs are driven by
  // event arrival, not local timers, so its drift is immaterial here).

  // Camera activation grid, fixed before the fault plan: the injection
  // window and the health timers are anchored to it.
  CameraFrontEnd camera(config, testbed, clock1);
  // Computer vision is the service-fault victim: the longest stage, and
  // the one EBA's hold fallback guards.
  scenario::FaultTolerance fault_tolerance(config, testbed.first_release(clock1, camera.phase()));

  const auto make_config = [&](Duration deadline) {
    return scenario::transactor_config(config, deadline, config.clock_error_bound);
  };

  // Deployment: all four SWC services either stay on the default SOME/IP
  // backend or, when requested, move onto the zero-copy in-process
  // transport. The builder attaches the backend per node and deploys every
  // served/required instance before skeletons/proxies resolve bindings.
  AppBuilder app(kernel, testbed.network, testbed.discovery, testbed.executor,
                 testbed.platform_rng, testbed.app_config());

  auto& adapter = app.node("adapter", kAdapterEp, 0x21);
  auto& preproc = app.node("preproc", kPreprocEp, 0x22);
  auto& cv = app.node("cv", kCvEp, 0x23);
  auto& eba = app.node("eba", kEbaEp, 0x24);
  auto& monitor = app.node("monitor", kMonitorEp, 0x25);

  // Server bundles first (offered on construction), then client bundles.
  auto& adapter_srv = adapter.serve<VideoAdapter>(kInstance, make_config(kAdapterDeadline));
  auto& preproc_srv = preproc.serve<Preprocessing>(kInstance, make_config(kPreprocessingDeadline));
  auto& cv_srv = cv.serve<ComputerVision>(kInstance, make_config(kCvDeadline));
  auto& eba_srv = eba.serve<Eba>(kInstance, make_config(kEbaDeadline));

  auto& preproc_cli = preproc.require<VideoAdapter>(kInstance, make_config(kPreprocessingDeadline));
  auto& cv_cli = cv.require<Preprocessing>(kInstance, make_config(kCvDeadline));
  auto& eba_cli = eba.require<ComputerVision>(kInstance, make_config(kEbaDeadline));
  if (config.retry.enabled()) {
    // The pipeline interfaces are pure event streams, so the budget has no
    // method call to retry here; installing it still exercises the policy
    // plumbing and keeps the two workloads symmetric.
    for (ara::ServiceProxy* proxy :
         {&preproc_cli.proxy(), &cv_cli.proxy(), &eba_cli.proxy()}) {
      proxy->set_retry_policy(config.retry);
    }
  }

  // Modeled execution times (upper bounds sit below the paper deadlines).
  const double ts = config.exec_time_scale;
  const auto adapter_cost =
      sim::ExecTimeModel::normal(1 * kMillisecond, 300 * kMicrosecond, 200 * kMicrosecond,
                                 3 * kMillisecond)
          .scaled(ts);
  const auto preproc_cost =
      sim::ExecTimeModel::normal(14 * kMillisecond, 2 * kMillisecond, 8 * kMillisecond,
                                 20 * kMillisecond)
          .scaled(ts);
  const auto cv_cost =
      sim::ExecTimeModel::normal(15 * kMillisecond, 2 * kMillisecond, 8 * kMillisecond,
                                 20 * kMillisecond)
          .scaled(ts);
  const auto eba_cost =
      sim::ExecTimeModel::normal(1 * kMillisecond, 300 * kMicrosecond, 200 * kMicrosecond,
                                 3 * kMillisecond)
          .scaled(ts);

  PipelineResult result;
  // Physical arrival time of each frame at the adapter, for end-to-end
  // latency accounting (capture→brake would need cross-clock conversion;
  // arrival→brake is the portion the pipeline controls).
  ArrivalTimes arrival_time;

  auto& adapter_logic = adapter.logic<AdapterLogic>(adapter_cost);
  auto& preproc_logic = preproc.logic<PreprocessingLogic>(preproc_cost);
  auto& cv_logic = cv.logic<ComputerVisionLogic>(cv_cost);
  auto& eba_logic = eba.logic<EbaLogic>(
      eba_cost,
      [&](const VehicleList& vehicles, const BrakeCommand& command, const reactor::Tag& tag) {
        ++result.frames_processed_eba;
        if (command.brake) {
          ++result.brake_commands;
        }
        if (command != reference_decision(vehicles.frame_id)) {
          ++result.wrong_decisions;
        }
        mix_digest(result.output_digest, vehicles.frame_id);
        mix_digest(result.output_digest, command.brake ? 1 : 0);
        mix_digest(result.output_digest, static_cast<std::uint64_t>(command.intensity * 1e6));
        if (const std::optional<TimePoint> arrival = arrival_time.take(vehicles.frame_id)) {
          // The logical offset from the sensor tag is the deterministic
          // part of the tag; the absolute tag follows the camera/network
          // timing inputs.
          mix_digest(result.tag_digest, static_cast<std::uint64_t>(tag.time - *arrival));
          mix_digest(result.tag_digest, tag.microstep);
          result.latency.add(static_cast<double>(kernel.now() - *arrival));
        }
      },
      fault_tolerance.fallback_period(),
      [&](const BrakeCommand& command, const reactor::Tag& /*tag*/) {
        // Degraded tick: the held command re-enters the digest under a
        // marker so a nondeterministic fallback could not hide; no
        // reference comparison (there is no frame behind a held tick).
        ++result.ft.degraded_ticks;
        mix_digest(result.output_digest, 0xFFFF'0000'0000'0000ULL | command.frame_id);
        mix_digest(result.output_digest, command.brake ? 1 : 0);
        mix_digest(result.output_digest, static_cast<std::uint64_t>(command.intensity * 1e6));
      },
      fault_tolerance.fallback_phase());

  // EBA's node supervises computer vision; the hold fallback listens.
  if (auto* health = fault_tolerance.deploy(app, cv, make_config(kCvDeadline), eba,
                                            make_config(kEbaDeadline))) {
    eba.connect(*health, *eba_logic.health_in);
  }

  // Video Adapter publishes frames; Preprocessing consumes them and
  // publishes lane info + the forwarded frame; Computer Vision fuses both
  // into vehicle lists; EBA decides. Each connect binds an SWC logic port
  // to the matching member transactor derived from the service descriptor.
  adapter.connect(adapter_logic.out, adapter_srv.tx(VideoAdapter::frame).in);

  preproc.connect(preproc_cli.tx(VideoAdapter::frame).out, preproc_logic.frame_in);
  preproc.connect(preproc_logic.lane_out, preproc_srv.tx(Preprocessing::lane).in);
  preproc.connect(preproc_logic.frame_fwd, preproc_srv.tx(Preprocessing::forwarded_frame).in);

  cv.connect(cv_cli.tx(Preprocessing::forwarded_frame).out, cv_logic.frame_in);
  cv.connect(cv_cli.tx(Preprocessing::lane).out, cv_logic.lane_in);
  cv.connect(cv_logic.vehicles_out, cv_srv.tx(ComputerVision::vehicles).in);

  eba.connect(eba_cli.tx(ComputerVision::vehicles).out, eba_logic.vehicles_in);
  eba.connect(eba_logic.brake_out, eba_srv.tx(Eba::brake).in);

  // Untagged monitor subscriber (exercises interoperability: the tag on
  // the brake event is simply not collected by a non-reactor client).
  auto& eba_proxy = monitor.proxy<Eba>(kInstance);
  eba_proxy.get(Eba::brake).SetReceiveHandler([](const BrakeCommand&) {});
  eba_proxy.get(Eba::brake).Subscribe();

  // Camera frames enter the reactor world as sensor events: tagged with
  // the physical time of reception (paper §IV.B).
  testbed.network.bind(kAdapterRawEp, [&](const net::Packet& packet) {
    VideoFrame frame;
    if (!decode_camera_packet(packet.payload, frame)) {
      return;
    }
    arrival_time.record(frame.frame_id, kernel.now());
    adapter_logic.frame_arrival.schedule(frame);
  });

  // Churn toggles EBA's vehicles subscription.
  if (!testbed.run(app, config, [&] { camera.start(); }, eba_cli.tx(ComputerVision::vehicles))) {
    return result;
  }
  camera.stop();

  // --- collect results -------------------------------------------------------------------
  camera.collect(result);
  result.errors.input_mismatches_cv = cv_logic.input_mismatches;

  result.deadline_violations = app.deadline_violations();
  result.tardy_messages = app.tardy_messages();
  result.untagged_messages = app.untagged_messages();

  // Observable protocol errors map onto the Figure 5 categories: a missing
  // or late message surfaces at the stage that would have consumed it.
  const auto& frame_tx = adapter_srv.tx(VideoAdapter::frame);
  const auto& frame_rx = preproc_cli.tx(VideoAdapter::frame);
  const auto& lane_tx = preproc_srv.tx(Preprocessing::lane);
  const auto& fwd_tx = preproc_srv.tx(Preprocessing::forwarded_frame);
  const auto& cv_frame_rx = cv_cli.tx(Preprocessing::forwarded_frame);
  const auto& cv_lane_rx = cv_cli.tx(Preprocessing::lane);
  const auto& vehicles_tx = cv_srv.tx(ComputerVision::vehicles);
  const auto& vehicles_rx = eba_cli.tx(ComputerVision::vehicles);

  result.errors.dropped_frames_preprocessing += frame_tx.deadline_violations() +
                                                frame_rx.tardy_messages() +
                                                frame_rx.dropped_messages();
  result.errors.dropped_frames_cv +=
      lane_tx.deadline_violations() + fwd_tx.deadline_violations() + cv_frame_rx.tardy_messages() +
      cv_lane_rx.tardy_messages() + cv_frame_rx.dropped_messages() + cv_lane_rx.dropped_messages();
  result.errors.dropped_vehicles_eba += vehicles_tx.deadline_violations() +
                                        vehicles_rx.tardy_messages() +
                                        vehicles_rx.dropped_messages();

  result.ft = fault_tolerance.counters(
      preproc_cli.proxy().retries() + cv_cli.proxy().retries() + eba_cli.proxy().retries(),
      result.ft.degraded_ticks);
  return result;
}

}  // namespace dear::brake
