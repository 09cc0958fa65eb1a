#include "brake/camera.hpp"

#include <gtest/gtest.h>

#include "net/sim_network.hpp"

namespace dear::brake {
namespace {

using namespace dear::literals;

struct CameraFixture : ::testing::Test {
  sim::Kernel kernel;
  sim::PlatformClock clock;
  net::SimNetwork network{kernel, common::Rng(1)};
  net::Endpoint camera_ep{1, 10};
  net::Endpoint adapter_ep{2, 100};
  std::vector<VideoFrame> received;

  void bind_adapter() {
    network.bind(adapter_ep, [this](const net::Packet& packet) {
      VideoFrame frame;
      ASSERT_TRUE(decode_camera_packet(packet.payload, frame));
      received.push_back(frame);
    });
  }
};

TEST_F(CameraFixture, SendsFramesOnPeriodicGrid) {
  bind_adapter();
  Camera::Config config;
  config.period = 50_ms;
  config.phase = 0;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 100;  // well past the grid points inside the run
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(240_ms);
  camera.stop();
  ASSERT_EQ(received.size(), 5u);  // 0, 50, 100, 150, 200 ms
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i].frame_id, i);
    EXPECT_EQ(received[i].capture_time, static_cast<TimePoint>(i) * 50_ms);
  }
  EXPECT_EQ(camera.frames_sent(), 5u);
}

TEST_F(CameraFixture, FrameLimitStopsCapture) {
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 3;
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(1_s);
  EXPECT_EQ(camera.frames_sent(), 3u);
  EXPECT_EQ(received.size(), 3u);
}

TEST_F(CameraFixture, ZeroFrameLimitSendsNothing) {
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 0;
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(1_s);
  EXPECT_EQ(camera.captures(), 0u);
  EXPECT_EQ(camera.frames_sent(), 0u);
  EXPECT_TRUE(received.empty());
}

TEST_F(CameraFixture, CaptureTimeUsesCameraClock) {
  bind_adapter();
  sim::PlatformClock skewed(3_ms, 0.0);  // camera clock 3 ms ahead
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 1;
  Camera camera(kernel, skewed, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(100_ms);
  ASSERT_EQ(received.size(), 1u);
  // The local grid point 0 maps to global -3 ms — already missed at start,
  // so the first capture is grid point 10 ms local = 7 ms global, stamped
  // with the camera's local reading. The frame id stays 0: ids are capture
  // ordinals, independent of where the clock offset lands the grid.
  EXPECT_EQ(received[0].capture_time, 10_ms);
  EXPECT_EQ(received[0].frame_id, 0u);
}

TEST_F(CameraFixture, FrameContentMatchesGenerator) {
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 2;
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(100_ms);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].content_hash, generate_frame(0, 0).content_hash);
  EXPECT_EQ(received[1].content_hash, generate_frame(1, 0).content_hash);
}

// --- burst-capture data plane -------------------------------------------------

/// Little-endian u64 word `index` of a stamped slab head.
std::uint64_t stamped_word(const common::LoanedBuffer& slab, std::size_t index) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    word |= static_cast<std::uint64_t>(slab.data()[index * 8 + i]) << (8 * i);
  }
  return word;
}

TEST_F(CameraFixture, BurstCapturePublishesStampedSlabPerFrame) {
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 5;
  config.payload_bytes = 4096;
  struct Burst {
    std::uint64_t frame_id;
    std::uint64_t content_hash;
    std::uint64_t payload_bytes;
    std::size_t size;
    bool published;
  };
  std::vector<Burst> bursts;
  config.frame_sink = [&bursts](const common::LoanedBuffer& slab, const VideoFrame& frame) {
    bursts.push_back({stamped_word(slab, 0), stamped_word(slab, 2), stamped_word(slab, 3),
                      slab.size(), slab.published()});
    EXPECT_EQ(stamped_word(slab, 0), frame.frame_id);
  };
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(1_s);
  EXPECT_EQ(camera.frames_sent(), 5u);
  EXPECT_EQ(camera.payload_frames(), 5u);
  EXPECT_EQ(camera.payload_drops(), 0u);
  ASSERT_EQ(bursts.size(), 5u);
  ASSERT_EQ(received.size(), 5u);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    EXPECT_EQ(bursts[i].frame_id, received[i].frame_id);
    EXPECT_EQ(bursts[i].content_hash, received[i].content_hash);
    EXPECT_EQ(bursts[i].payload_bytes, 4096u);
    EXPECT_EQ(bursts[i].size, 4096u);
    EXPECT_TRUE(bursts[i].published);
  }
}

TEST_F(CameraFixture, RingExhaustionDropsCaptureWhole) {
  // A sink that never releases its handles exhausts the 2-slab ring after
  // two frames; every later capture is dropped *whole* — no metadata
  // packet either, so the drop is visible in the frame stream (and hence
  // the digest), not just in the payload accounting.
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 5;
  config.payload_bytes = 1024;
  config.ring_slabs = 2;
  std::vector<common::LoanedBuffer> held;
  config.frame_sink = [&held](const common::LoanedBuffer& slab, const VideoFrame&) {
    held.push_back(slab);  // retain: the ring slot stays busy
  };
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(1_s);
  EXPECT_EQ(camera.captures(), 5u);
  EXPECT_EQ(camera.payload_frames(), 2u);
  EXPECT_EQ(camera.payload_drops(), 3u);
  EXPECT_EQ(camera.frames_sent(), 2u);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].frame_id, 0u);
  EXPECT_EQ(received[1].frame_id, 1u);

  // Releasing the held slabs frees the ring again (requeue on next run).
  held.clear();
}

TEST_F(CameraFixture, ReleasedSlabsRequeueWithoutDrops) {
  // The complementary case: a sink that releases immediately never
  // exhausts even a 2-slab ring — each capture finds a requeued slot.
  bind_adapter();
  Camera::Config config;
  config.period = 10_ms;
  config.jitter = sim::ExecTimeModel::constant(0);
  config.frame_limit = 8;
  config.payload_bytes = 1024;
  config.ring_slabs = 2;
  std::uint64_t sink_frames = 0;
  config.frame_sink = [&sink_frames](const common::LoanedBuffer&, const VideoFrame&) {
    ++sink_frames;  // handle not retained: released when the sink returns
  };
  Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
  camera.start();
  kernel.run_until(1_s);
  EXPECT_EQ(camera.payload_frames(), 8u);
  EXPECT_EQ(camera.payload_drops(), 0u);
  EXPECT_EQ(camera.frames_sent(), 8u);
  EXPECT_EQ(sink_frames, 8u);
}

TEST_F(CameraFixture, BurstDropPatternIsDeterministic) {
  // Two identical runs with a retaining sink must drop the *same* frames:
  // exhaustion depends only on the capture/release order, which the DES
  // kernel fixes.
  const auto run_once = [](std::vector<std::uint64_t>& sent_ids) {
    sim::Kernel kernel;
    sim::PlatformClock clock;
    net::SimNetwork network{kernel, common::Rng(1)};
    const net::Endpoint camera_ep{1, 10};
    const net::Endpoint adapter_ep{2, 100};
    network.bind(adapter_ep, [&sent_ids](const net::Packet& packet) {
      VideoFrame frame;
      ASSERT_TRUE(decode_camera_packet(packet.payload, frame));
      sent_ids.push_back(frame.frame_id);
    });
    Camera::Config config;
    config.period = 10_ms;
    config.jitter = sim::ExecTimeModel::constant(0);
    config.frame_limit = 6;
    config.payload_bytes = 1024;
    config.ring_slabs = 3;
    std::vector<common::LoanedBuffer> held;
    config.frame_sink = [&held](const common::LoanedBuffer& slab, const VideoFrame&) {
      held.push_back(slab);
    };
    Camera camera(kernel, clock, network, camera_ep, adapter_ep, config, common::Rng(2));
    camera.start();
    kernel.run_until(1_s);
    EXPECT_EQ(camera.payload_drops(), 3u);
  };
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  run_once(first);
  run_once(second);
  EXPECT_EQ(first, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(first, second);
}

TEST(CameraPacket, DecodeRejectsGarbage) {
  VideoFrame frame;
  EXPECT_FALSE(decode_camera_packet({1, 2, 3}, frame));
  EXPECT_FALSE(decode_camera_packet({}, frame));
  // Trailing garbage after a valid frame is rejected too.
  someip::Writer writer;
  someip_serialize(writer, generate_frame(1, 2));
  auto bytes = writer.take();
  bytes.push_back(0xFF);
  EXPECT_FALSE(decode_camera_packet(bytes, frame));
}

}  // namespace
}  // namespace dear::brake
