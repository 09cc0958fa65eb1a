// Input buffering policies for the classic pipeline.
//
// The APD uses one-slot buffers ("latest wins"); a natural alternative is
// a small FIFO queue that absorbs jitter at the cost of staleness. The
// buffer-depth ablation (`dear_reports ablation`) quantifies that trade:
// deeper buffers drop fewer inputs but feed the logic older data.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>

#include "common/ring_buffer.hpp"

namespace dear::brake {

template <typename T>
class InputBuffer {
 public:
  /// depth == 1 reproduces the APD one-slot overwrite semantics; depth > 1
  /// queues FIFO and evicts the oldest element when full.
  explicit InputBuffer(std::size_t depth) : ring_(depth == 0 ? 1 : depth) {}

  /// Stores a value; returns true when an unconsumed value was lost
  /// (overwritten or evicted).
  bool store(T value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.capacity() == 1) {
      // Latest-wins slot: an unread value is overwritten.
      const bool lost = !ring_.empty();
      ring_.clear();
      (void)ring_.push(std::move(value));
      if (lost) {
        ++lost_;
      }
      return lost;
    }
    const bool lost = ring_.push_evict(std::move(value)).has_value();
    if (lost) {
      ++lost_;
    }
    return lost;
  }

  /// Removes the element the logic should process next: the newest under
  /// one-slot semantics, the oldest under FIFO semantics.
  [[nodiscard]] std::optional<T> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ring_.pop();
  }

  [[nodiscard]] std::size_t depth() const noexcept { return ring_.capacity(); }
  [[nodiscard]] std::uint64_t lost() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lost_;
  }

 private:
  mutable std::mutex mutex_;
  common::RingBuffer<T> ring_;
  std::uint64_t lost_{0};
};

}  // namespace dear::brake
