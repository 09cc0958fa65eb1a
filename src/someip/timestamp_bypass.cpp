#include "someip/timestamp_bypass.hpp"

namespace dear::someip {

void TimestampBypass::deposit(WireTag tag) {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  if (slot_.has_value()) {
    ++overwrites_;
  }
  slot_ = tag;
}

std::optional<WireTag> TimestampBypass::collect() {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  std::optional<WireTag> tag = slot_;
  slot_.reset();
  return tag;
}

std::optional<WireTag> TimestampBypass::peek() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return slot_;
}

bool TimestampBypass::armed() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return slot_.has_value();
}

std::uint64_t TimestampBypass::overwrites() const {
  const std::lock_guard<common::OwnerMutex> lock(mutex_);
  return overwrites_;
}

}  // namespace dear::someip
