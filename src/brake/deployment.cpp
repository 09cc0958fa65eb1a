#include "brake/deployment.hpp"

namespace dear::brake {

CameraFrontEnd::CameraFrontEnd(const scenario::PlatformKnobs& knobs, scenario::Testbed& testbed,
                               const sim::PlatformClock& clock)
    : phase_(testbed.sensor_rng.stream("camera").uniform_duration(0, scenario::kSensorPeriod - 1)),
      camera_(testbed.kernel, clock, testbed.network, kCameraEp, kAdapterRawEp,
              camera_config(knobs), testbed.sensor_rng) {}

Camera::Config CameraFrontEnd::camera_config(const scenario::PlatformKnobs& knobs) {
  Camera::Config config;
  config.period = scenario::kSensorPeriod;
  config.phase = phase_;
  config.jitter = sim::ExecTimeModel::uniform(0, kCameraJitter);
  config.frame_limit = knobs.frames;
  config.faults = knobs.sensor_faults;
  config.payload_bytes = knobs.camera_payload_bytes;
  if (knobs.camera_payload_bytes > 0) {
    config.frame_sink = [this](const common::LoanedBuffer& slab, const VideoFrame&) {
      latest_pixels_ = slab;
    };
  }
  return config;
}

void CameraFrontEnd::collect(PipelineResult& result) const {
  result.frames_sent = camera_.frames_sent();
  result.camera_payload_frames = camera_.payload_frames();
  result.camera_payload_drops = camera_.payload_drops();
  result.sensor_faults = camera_.fault_injector().counts();
}

}  // namespace dear::brake
