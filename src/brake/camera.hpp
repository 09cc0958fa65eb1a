// Video Provider (camera) on platform 1.
//
// "Video Provider captures video frames and sends one approximately every
// 50 ms (via a proprietary protocol) to Video Adapter, which is running on
// the second platform" (paper §IV.A). The proprietary protocol is modeled
// as raw serialized frames over the datagram network — deliberately *not*
// SOME/IP, and never tagged; the Video Adapter is the sensor boundary of
// the system in both pipeline variants.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "brake/logic.hpp"
#include "common/buffer_pool.hpp"
#include "brake/types.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/clock_model.hpp"
#include "sim/exec_time_model.hpp"
#include "sim/fault_injection.hpp"
#include "sim/kernel.hpp"
#include "sim/periodic_task.hpp"

namespace dear::brake {

/// Decodes a proprietary camera datagram back into a frame. Returns false
/// on malformed input.
[[nodiscard]] bool decode_camera_packet(const std::vector<std::uint8_t>& payload,
                                        VideoFrame& frame);

class Camera {
 public:
  struct Config {
    Duration period{50 * kMillisecond};
    /// Phase of the first capture on the camera's local clock.
    Duration phase{0};
    /// Per-capture release jitter.
    sim::ExecTimeModel jitter{sim::ExecTimeModel::uniform(0, 500 * kMicrosecond)};
    /// Stops the camera after this many *captures* (0 = the camera sends
    /// nothing). With fault injection, dropped captures count toward the
    /// limit but are never sent, so frames_sent() can end up below it.
    std::uint64_t frame_limit{0};
    /// Sensor faults, decided per capture from the camera's own rng — part
    /// of the input stream, not of the platform.
    sim::SensorFaultModel faults{};
    /// Burst-capture data plane: when nonzero, each sent frame also fills
    /// and publishes a loaned pixel slab of this many bytes (the frame
    /// header words are stamped into the slab, the rest models pixel
    /// data). 0 keeps the metadata-only camera.
    std::size_t payload_bytes{0};
    /// Frame ring depth: slabs cycling through dequeue → fill → publish →
    /// requeue. A slab requeues when every consumer released it; if all
    /// ring slots are still held downstream the capture is *dropped*, and
    /// the drop is deterministic (it enters the digest as a missing
    /// frame).
    std::size_t ring_slabs{4};
    /// Receives every published frame slab (retains it by handle copy).
    std::function<void(const common::LoanedBuffer&, const VideoFrame&)> frame_sink;
  };

  Camera(sim::Kernel& kernel, const sim::PlatformClock& clock, net::Network& network,
         net::Endpoint self, net::Endpoint adapter, Config config, common::Rng rng);

  void start() { task_.start(); }
  void stop() { task_.stop(); }

  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  [[nodiscard]] std::uint64_t captures() const noexcept { return captures_; }
  /// Pixel slabs published / captures dropped on ring exhaustion (both 0
  /// unless payload_bytes is configured).
  [[nodiscard]] std::uint64_t payload_frames() const noexcept { return payload_frames_; }
  [[nodiscard]] std::uint64_t payload_drops() const noexcept { return payload_drops_; }
  [[nodiscard]] const sim::SensorFaultInjector& fault_injector() const noexcept {
    return faults_;
  }

 private:
  void capture(std::uint64_t index, TimePoint release_time);
  /// Burst-capture cycle for one frame: dequeue a ring slab, stamp + fill,
  /// publish, hand to the sink. Returns false when the ring is exhausted
  /// (capture dropped).
  [[nodiscard]] bool capture_payload(const VideoFrame& frame);

  sim::Kernel& kernel_;
  const sim::PlatformClock& clock_;
  net::Network& network_;
  net::Endpoint self_;
  net::Endpoint adapter_;
  Config config_;
  sim::PeriodicTask task_;
  sim::SensorFaultInjector faults_;
  std::optional<VideoFrame> last_frame_;
  /// Fixed ring of frame slabs (handles; empty slots loan lazily).
  std::vector<common::LoanedBuffer> ring_;
  std::uint64_t frames_sent_{0};
  std::uint64_t captures_{0};
  std::uint64_t payload_frames_{0};
  std::uint64_t payload_drops_{0};
};

}  // namespace dear::brake
