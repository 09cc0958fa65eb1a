#include <gtest/gtest.h>

#include <stdexcept>

#include "common/ring_buffer.hpp"

namespace dear::common {
namespace {

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> ring(4);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_TRUE(ring.push(i));
  }
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push(5));
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(ring.pop().value(), i);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(RingBuffer, WrapAround) {
  RingBuffer<int> ring(3);
  (void)ring.push(1);
  (void)ring.push(2);
  (void)ring.pop();
  (void)ring.push(3);
  (void)ring.push(4);
  EXPECT_EQ(ring.pop().value(), 2);
  EXPECT_EQ(ring.pop().value(), 3);
  EXPECT_EQ(ring.pop().value(), 4);
}

TEST(RingBuffer, PushEvictReturnsOldest) {
  RingBuffer<int> ring(2);
  EXPECT_FALSE(ring.push_evict(1).has_value());
  EXPECT_FALSE(ring.push_evict(2).has_value());
  const auto evicted = ring.push_evict(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1);
  EXPECT_EQ(ring.pop().value(), 2);
  EXPECT_EQ(ring.pop().value(), 3);
}

TEST(RingBuffer, FrontAndClear) {
  RingBuffer<int> ring(2);
  EXPECT_THROW((void)ring.front(), std::out_of_range);
  (void)ring.push(7);
  EXPECT_EQ(ring.front(), 7);
  EXPECT_EQ(ring.size(), 1u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 2u);
}

}  // namespace
}  // namespace dear::common
