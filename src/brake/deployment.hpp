// Where the brake assistant runs, shared by the stock pipeline
// (nondet_pipeline.cpp) and the DEAR pipeline (dear_pipeline.cpp): the
// endpoint table of the paper's two-platform testbed and the camera
// front-end.
#pragma once

#include "brake/camera.hpp"
#include "brake/metrics.hpp"
#include "common/buffer_pool.hpp"
#include "net/network.hpp"
#include "scenario/testbed.hpp"
#include "sim/clock_model.hpp"

namespace dear::brake {

// The Video Provider (camera) sits alone on platform 1. The four SWCs and
// an untagged monitor share platform 2, where the Video Adapter also
// listens on a raw endpoint for the camera's proprietary datagrams.
inline constexpr net::NodeId kPlatform1 = 1;
inline constexpr net::NodeId kPlatform2 = 2;

inline constexpr net::Endpoint kCameraEp{kPlatform1, 10};
inline constexpr net::Endpoint kAdapterRawEp{kPlatform2, 100};
inline constexpr net::Endpoint kAdapterEp{kPlatform2, 101};
inline constexpr net::Endpoint kPreprocEp{kPlatform2, 102};
inline constexpr net::Endpoint kCvEp{kPlatform2, 103};
inline constexpr net::Endpoint kEbaEp{kPlatform2, 104};
inline constexpr net::Endpoint kMonitorEp{kPlatform2, 105};

/// The camera of one run, sending from kCameraEp to kAdapterRawEp every
/// scenario::kSensorPeriod with up to kCameraJitter of release jitter. Its
/// capture phase is drawn from the testbed's sensor_rng.stream("camera"),
/// and the knobs give its frame count, sensor faults and pixel-slab size.
class CameraFrontEnd {
 public:
  static constexpr Duration kCameraJitter = 500 * kMicrosecond;

  /// `clock` is the camera platform's; it and the testbed must outlive
  /// the front-end.
  CameraFrontEnd(const scenario::PlatformKnobs& knobs, scenario::Testbed& testbed,
                 const sim::PlatformClock& clock);

  CameraFrontEnd(const CameraFrontEnd&) = delete;
  CameraFrontEnd& operator=(const CameraFrontEnd&) = delete;

  /// Phase of the first capture on the camera clock.
  [[nodiscard]] Duration phase() const noexcept { return phase_; }

  void start() { camera_.start(); }
  void stop() { camera_.stop(); }

  /// Copies the camera's columns of `result`: frames sent, pixel slabs
  /// published and dropped, and the injected sensor faults.
  void collect(PipelineResult& result) const;

 private:
  [[nodiscard]] Camera::Config camera_config(const scenario::PlatformKnobs& knobs);

  /// Newest published pixel slab. Holding only the latest frame keeps the
  /// slab ring from exhausting, so engaging the data plane changes no
  /// frame stream and no digest. Declared before the camera, so the handle
  /// is released after it.
  common::LoanedBuffer latest_pixels_;
  Duration phase_;
  Camera camera_;
};

}  // namespace dear::brake
