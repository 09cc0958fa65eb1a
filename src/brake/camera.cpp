#include "brake/camera.hpp"

#include "common/buffer_pool.hpp"
#include "obs/obs.hpp"
#include "someip/serialization.hpp"

namespace dear::brake {

namespace {

/// Stamps the frame identity words into the slab head, little-endian (the
/// deterministic part of the "pixel" content — consumers can verify which
/// logical frame a slab carries without decoding the metadata packet).
void stamp_frame(std::uint8_t* data, std::size_t capacity, const VideoFrame& frame,
                 std::uint64_t payload_bytes) {
  const std::uint64_t words[4] = {frame.frame_id, static_cast<std::uint64_t>(frame.capture_time),
                                  frame.content_hash, payload_bytes};
  std::size_t offset = 0;
  for (const std::uint64_t word : words) {
    if (offset + sizeof(word) > capacity) {
      break;
    }
    for (std::size_t i = 0; i < sizeof(word); ++i) {
      data[offset + i] = static_cast<std::uint8_t>(word >> (8 * i));
    }
    offset += sizeof(word);
  }
}

}  // namespace

bool decode_camera_packet(const std::vector<std::uint8_t>& payload, VideoFrame& frame) {
  someip::Reader reader(payload);
  someip_deserialize(reader, frame);
  return reader.ok() && reader.remaining() == 0;
}

Camera::Camera(sim::Kernel& kernel, const sim::PlatformClock& clock, net::Network& network,
               net::Endpoint self, net::Endpoint adapter, Config config, common::Rng rng)
    : kernel_(kernel), clock_(clock), network_(network), self_(self), adapter_(adapter),
      config_(config),
      task_(kernel, clock, config.period, config.phase,
            [this](std::uint64_t index, TimePoint release) { capture(index, release); }),
      faults_(config.faults, rng.stream("camera.faults")) {
  task_.set_jitter(config_.jitter, rng.stream("camera.jitter"));
}

void Camera::capture(std::uint64_t /*activation*/, TimePoint release_time) {
  if (captures_ >= config_.frame_limit) {
    task_.stop();
    return;
  }
  // Frame ids are capture ordinals, not activation indices: where the
  // periodic grid starts depends on the camera clock's offset (a platform
  // property), while the frame stream 0..N-1 is the *input* and must be
  // identical for every platform seed.
  const std::uint64_t frame_id = captures_++;
  VideoFrame frame = generate_frame(frame_id, clock_.local_now(release_time));
  switch (faults_.next()) {
    case sim::SensorFaultInjector::Outcome::kDrop:
      return;
    case sim::SensorFaultInjector::Outcome::kStuck:
      // A frozen sensor re-delivers the previous frame verbatim; the very
      // first capture has nothing to freeze on and stays nominal.
      if (last_frame_.has_value()) {
        frame = *last_frame_;
      }
      break;
    case sim::SensorFaultInjector::Outcome::kNoisy:
      frame.content_hash ^= faults_.noise_word();
      break;
    case sim::SensorFaultInjector::Outcome::kNominal:
      break;
  }
  last_frame_ = frame;
  // Burst-capture data plane: the pixel slab must be secured before the
  // metadata packet goes out — a ring-exhausted capture is dropped whole
  // (no packet, no slab), so the drop shows up identically in the frame
  // digest and in the payload accounting.
  if (config_.payload_bytes > 0 && !capture_payload(frame)) {
    return;
  }
  // Pooled wire buffer: the network layer releases it back after delivery,
  // so the frame stream's acquire/release traffic balances — a sender that
  // pushed fresh vectors into the pool would force a cache flush per
  // scenario (caught by the alloc-count shelf-lock tests).
  someip::Writer writer(common::BufferPool::instance().acquire());
  someip_serialize(writer, frame);
  network_.send(self_, adapter_, writer.take());
  ++frames_sent_;
}

bool Camera::capture_payload(const VideoFrame& frame) {
  if (ring_.empty()) {
    ring_.resize(config_.ring_slabs > 0 ? config_.ring_slabs : 1);
  }
  // Dequeue: an empty slot loans lazily; a slot whose previous frame every
  // consumer has released (we hold the only handle) requeues — reset + a
  // fresh loan, which the shelf serves without allocating.
  common::LoanedBuffer* slot = nullptr;
  for (auto& candidate : ring_) {
    if (!candidate || candidate.use_count() == 1) {
      slot = &candidate;
      break;
    }
  }
  if (slot == nullptr) {
    // Every ring slab is still held downstream: deterministic drop.
    ++payload_drops_;
    obs::count_always(obs::Counter::kCameraPayloadDrops);
    return false;
  }
  slot->reset();
  *slot = common::BufferPool::instance().loan(config_.payload_bytes);
  stamp_frame(slot->data(), slot->capacity(), frame, config_.payload_bytes);
  slot->publish(config_.payload_bytes);
  ++payload_frames_;
  obs::count_always(obs::Counter::kCameraPayloadFrames);
  if (config_.frame_sink) {
    config_.frame_sink(*slot, frame);
  }
  return true;
}

}  // namespace dear::brake
