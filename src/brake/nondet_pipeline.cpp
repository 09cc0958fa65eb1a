#include "brake/nondet_pipeline.hpp"

#include <optional>

#include "ara/deterministic_client.hpp"
#include "ara/generated.hpp"
#include "ara/runtime.hpp"
#include "brake/camera.hpp"
#include "brake/deployment.hpp"
#include "brake/logic.hpp"
#include "brake/services.hpp"
#include "brake/input_buffer.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "scenario/testbed.hpp"
#include "sim/clock_model.hpp"
#include "sim/periodic_task.hpp"

namespace dear::brake {

namespace {

/// Per-activation scheduling jitter bound for the SWC callbacks.
constexpr Duration kCallbackJitter = 2 * kMillisecond;
/// Dispatcher-thread wake-up jitter for event receive handlers (ara::com
/// dispatches them onto runtime threads; the skew between the frame and
/// lane handlers is what misaligns Computer Vision's inputs).
constexpr Duration kDispatchJitter = 2 * kMillisecond;
/// Maximum per-task effective-period offset (ppm of the period, drawn per
/// SWC per seed). Real periodic callbacks drift slightly relative to each
/// other (timer re-arm overhead, load), so phase alignment between SWCs is
/// transient rather than permanent.
constexpr double kTaskPeriodDriftPpm = 40.0;

using common::mix_digest;
using scenario::kSensorPeriod;

/// Draws a drift in [-bound, bound] with mass concentrated near zero
/// (cubic shaping): most real clocks/timers sit close to nominal, a few
/// are well off — which is what makes the best experiment instances of
/// Figure 5 nearly error-free and the worst ones terrible.
[[nodiscard]] double draw_drift(common::Rng& rng, double bound) {
  const double u = 2.0 * rng.uniform01() - 1.0;
  return bound * u * u * u;
}

/// Shared state of one scenario execution.
struct Scenario {
  explicit Scenario(const ScenarioConfig& config)
      : config(config), testbed(config, kDispatchJitter) {}

  const ScenarioConfig& config;
  scenario::Testbed testbed;
  sim::PlatformClock clock1;  // camera platform
  sim::PlatformClock clock2;  // compute platform

  PipelineResult result;

  [[nodiscard]] Duration random_phase(common::Rng& rng) {
    return rng.uniform_duration(0, kSensorPeriod - 1);
  }
};

/// One SWC of the classic pipeline: periodic callback + one-slot buffers.
/// The deterministic-client variant routes each activation through the
/// DeterministicClient cycle state machine (intra-SWC determinism only).
class ClassicSwc {
 public:
  static Duration effective_period(Scenario& scenario, const std::string& name) {
    auto rng = scenario.testbed.platform_rng.stream(name + ".period_drift");
    const double bound = kTaskPeriodDriftPpm * 1e-6 * static_cast<double>(kSensorPeriod);
    return kSensorPeriod + static_cast<Duration>(draw_drift(rng, bound));
  }

  ClassicSwc(Scenario& scenario, std::string name, Duration phase,
             std::function<void(TimePoint)> logic)
      : logic_(std::move(logic)),
        task_(scenario.testbed.kernel, scenario.clock2, effective_period(scenario, name), phase,
              [this](std::uint64_t, TimePoint release) { tick(release); }) {
    task_.set_jitter(
        sim::ExecTimeModel::uniform(0, kCallbackJitter),
        scenario.testbed.platform_rng.stream(name + ".jitter"));
    if (scenario.config.use_deterministic_client) {
      client_.emplace(ara::DeterministicClient::Config{scenario.config.platform_seed, 4});
    }
  }

  void start() { task_.start(); }
  void stop() { task_.stop(); }

 private:
  void tick(TimePoint release) {
    if (client_.has_value()) {
      // Drive the deterministic client's activation cycle; the first three
      // activations are startup phases.
      const auto state = client_->WaitForActivation(release);
      if (state != ara::ActivationReturnType::kRun) {
        return;
      }
    }
    logic_(release);
  }

  std::function<void(TimePoint)> logic_;
  sim::PeriodicTask task_;
  std::optional<ara::DeterministicClient> client_;
};

}  // namespace

PipelineResult run_nondet_pipeline(const ScenarioConfig& config) {
  Scenario s(config);

  // --- platform clocks (offset + drift, paper's two MinnowBoards) -----------
  // Draws are sequenced explicitly: as constructor arguments their
  // evaluation order would be compiler-dependent.
  scenario::Testbed& testbed = s.testbed;
  auto drift_rng = testbed.platform_rng.stream("clock.drift");
  const Duration clock1_offset = drift_rng.uniform_duration(0, kSensorPeriod);
  const double clock1_drift = draw_drift(drift_rng, config.clock_drift_ppm);
  s.clock1 = sim::PlatformClock(clock1_offset, clock1_drift);
  const Duration clock2_offset = drift_rng.uniform_duration(0, kSensorPeriod);
  const double clock2_drift = draw_drift(drift_rng, config.clock_drift_ppm);
  s.clock2 = sim::PlatformClock(clock2_offset, clock2_drift);

  // --- runtimes, skeletons, proxies ---------------------------------------------
  ara::Runtime adapter_rt(testbed.network, testbed.discovery, testbed.executor, kAdapterEp, 0x11);
  ara::Runtime preproc_rt(testbed.network, testbed.discovery, testbed.executor, kPreprocEp, 0x12);
  ara::Runtime cv_rt(testbed.network, testbed.discovery, testbed.executor, kCvEp, 0x13);
  ara::Runtime eba_rt(testbed.network, testbed.discovery, testbed.executor, kEbaEp, 0x14);
  ara::Runtime monitor_rt(testbed.network, testbed.discovery, testbed.executor, kMonitorEp, 0x15);

  ara::Skeleton<VideoAdapter> adapter_skel(adapter_rt, kInstance);
  ara::Skeleton<Preprocessing> preproc_skel(preproc_rt, kInstance);
  ara::Skeleton<ComputerVision> cv_skel(cv_rt, kInstance);
  ara::Skeleton<Eba> eba_skel(eba_rt, kInstance);
  adapter_skel.OfferService();
  preproc_skel.OfferService();
  cv_skel.OfferService();
  eba_skel.OfferService();

  ara::Proxy<VideoAdapter> adapter_proxy(preproc_rt, kInstance,
                                         *preproc_rt.resolve({kVideoAdapterService, kInstance}));
  ara::Proxy<Preprocessing> preproc_proxy(cv_rt, kInstance,
                                          *cv_rt.resolve({kPreprocessingService, kInstance}));
  ara::Proxy<ComputerVision> cv_proxy(eba_rt, kInstance,
                                      *eba_rt.resolve({kComputerVisionService, kInstance}));
  ara::Proxy<Eba> eba_proxy(monitor_rt, kInstance,
                            *monitor_rt.resolve({kEbaService, kInstance}));

  // --- one-slot input buffers (the nondeterminism at the heart of §IV.A) ------
  const std::size_t depth = config.input_queue_depth;
  InputBuffer<VideoFrame> adapter_buffer(depth);
  InputBuffer<VideoFrame> preproc_buffer(depth);
  InputBuffer<VideoFrame> cv_frame_buffer(depth);
  InputBuffer<LaneInfo> cv_lane_buffer(depth);
  InputBuffer<VehicleList> eba_buffer(depth);

  PipelineResult& result = s.result;
  std::uint64_t latest_frame_id = 0;  // newest frame that reached platform 2

  // Camera frames arrive over the proprietary protocol.
  testbed.network.bind(kAdapterRawEp, [&](const net::Packet& packet) {
    VideoFrame frame;
    if (!decode_camera_packet(packet.payload, frame)) {
      return;
    }
    latest_frame_id = frame.frame_id;
    if (adapter_buffer.store(frame)) {
      // Overwritten before the adapter forwarded it: Preprocessing never
      // sees this frame.
      ++result.errors.dropped_frames_preprocessing;
    }
  });

  // Event handlers store into the buffers (and detect overwrites).
  adapter_proxy.get(VideoAdapter::frame).SetReceiveHandler([&](const VideoFrame& frame) {
    if (preproc_buffer.store(frame)) {
      ++result.errors.dropped_frames_preprocessing;
    }
  });
  adapter_proxy.get(VideoAdapter::frame).Subscribe();

  // The forwarded frame and its lane info travel as a pair; an overwrite
  // of the frame slot counts as one dropped frame at Computer Vision (the
  // lane slot overwrite is the same lost pair, not a second error).
  preproc_proxy.get(Preprocessing::forwarded_frame).SetReceiveHandler([&](const VideoFrame& frame) {
    if (cv_frame_buffer.store(frame)) {
      ++result.errors.dropped_frames_cv;
    }
  });
  preproc_proxy.get(Preprocessing::forwarded_frame).Subscribe();
  preproc_proxy.get(Preprocessing::lane).SetReceiveHandler([&](const LaneInfo& lane) { (void)cv_lane_buffer.store(lane); });
  preproc_proxy.get(Preprocessing::lane).Subscribe();

  cv_proxy.get(ComputerVision::vehicles).SetReceiveHandler([&](const VehicleList& vehicles) {
    if (eba_buffer.store(vehicles)) {
      ++result.errors.dropped_vehicles_eba;
    }
  });
  cv_proxy.get(ComputerVision::vehicles).Subscribe();

  eba_proxy.get(Eba::brake).SetReceiveHandler([&](const BrakeCommand&) {});
  eba_proxy.get(Eba::brake).Subscribe();

  // --- the periodic SWC logic ------------------------------------------------------
  auto phase_rng = testbed.platform_rng.stream("phases");

  ClassicSwc adapter_swc(s, "adapter", s.random_phase(phase_rng), [&](TimePoint) {
    if (auto frame = adapter_buffer.take(); frame.has_value()) {
      adapter_skel.get(VideoAdapter::frame).Send(*frame);
    }
  });

  ClassicSwc preproc_swc(s, "preproc", s.random_phase(phase_rng), [&](TimePoint) {
    if (auto frame = preproc_buffer.take(); frame.has_value()) {
      preproc_skel.get(Preprocessing::lane).Send(detect_lane(*frame));
      preproc_skel.get(Preprocessing::forwarded_frame).Send(*frame);
    }
  });

  ClassicSwc cv_swc(s, "cv", s.random_phase(phase_rng), [&](TimePoint) {
    auto frame = cv_frame_buffer.take();
    auto lane = cv_lane_buffer.take();
    if (!frame.has_value() && !lane.has_value()) {
      return;  // silently wait for the next trigger
    }
    if (!frame.has_value() || !lane.has_value()) {
      // One input consumed without its counterpart: that sample is lost.
      ++result.errors.dropped_frames_cv;
      return;
    }
    if (frame->frame_id != lane->frame_id) {
      ++result.errors.input_mismatches_cv;  // misaligned inputs — computed anyway
    }
    cv_skel.get(ComputerVision::vehicles).Send(detect_vehicles(*frame, *lane));
  });

  ClassicSwc eba_swc(s, "eba", s.random_phase(phase_rng), [&](TimePoint) {
    if (auto vehicles = eba_buffer.take(); vehicles.has_value()) {
      const BrakeCommand command = decide_brake(*vehicles);
      eba_skel.get(Eba::brake).Send(command);
      ++result.frames_processed_eba;
      if (command.brake) {
        ++result.brake_commands;
      }
      if (command != reference_decision(vehicles->frame_id)) {
        ++result.wrong_decisions;
      }
      result.staleness.add(static_cast<double>(latest_frame_id - vehicles->frame_id));
      mix_digest(result.output_digest, vehicles->frame_id);
      mix_digest(result.output_digest, command.brake ? 1 : 0);
      mix_digest(result.output_digest, static_cast<std::uint64_t>(command.intensity * 1e6));
    }
  });

  // --- the camera ---------------------------------------------------------------------
  CameraFrontEnd camera(config, testbed, s.clock1);

  adapter_swc.start();
  preproc_swc.start();
  cv_swc.start();
  eba_swc.start();
  camera.start();

  // Run until all frames have flushed through the (4-stage, 50 ms)
  // pipeline. The callbacks and the camera start at t = 0: this baseline
  // has no settle drain.
  testbed.kernel.run_until(testbed.horizon(0));

  camera.stop();
  adapter_swc.stop();
  preproc_swc.stop();
  cv_swc.stop();
  eba_swc.stop();

  camera.collect(result);
  return result;
}

}  // namespace dear::brake
