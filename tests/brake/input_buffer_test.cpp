// brake::InputBuffer. Depth 1 is the APD one-slot buffer (paper §IV.A):
// event handlers overwrite the slot, the periodic SWC logic takes the
// latest value, and an overwrite of an unread value is a dropped input —
// exactly the error class Figure 5 counts. Deeper buffers (the buffer-depth
// ablation) queue FIFO and evict the oldest value when full.
#include "brake/input_buffer.hpp"

#include <gtest/gtest.h>

#include <string>

namespace dear::brake {
namespace {

TEST(OneSlotBuffer, TakeFromEmptyIsNullopt) {
  InputBuffer<int> buffer(1);
  EXPECT_FALSE(buffer.take().has_value());
  EXPECT_EQ(buffer.lost(), 0u);
}

TEST(OneSlotBuffer, StoreThenTake) {
  InputBuffer<int> buffer(1);
  EXPECT_FALSE(buffer.store(42));
  const auto value = buffer.take();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 42);
  EXPECT_FALSE(buffer.take().has_value());
}

TEST(OneSlotBuffer, OverwriteIsReportedAndCounted) {
  InputBuffer<std::string> buffer(1);
  EXPECT_FALSE(buffer.store("first"));
  EXPECT_TRUE(buffer.store("second"));  // the dropped-input case of §IV.A
  EXPECT_EQ(buffer.lost(), 1u);
  const auto value = buffer.take();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "second");  // latest wins
}

TEST(OneSlotBuffer, CountersTrackTraffic) {
  // Only an overwrite of an unread value is lost: a store into a slot the
  // logic already emptied, or a take from an empty slot, is not.
  InputBuffer<int> buffer(1);
  EXPECT_FALSE(buffer.store(1));
  EXPECT_EQ(buffer.take().value(), 1);
  EXPECT_FALSE(buffer.store(2));
  EXPECT_TRUE(buffer.store(3));
  EXPECT_EQ(buffer.take().value(), 3);
  EXPECT_FALSE(buffer.take().has_value());
  EXPECT_EQ(buffer.lost(), 1u);
  EXPECT_EQ(buffer.depth(), 1u);
}

TEST(InputBuffer, DeeperBufferEvictsOldestFirst) {
  InputBuffer<int> buffer(3);
  EXPECT_FALSE(buffer.store(1));
  EXPECT_FALSE(buffer.store(2));
  EXPECT_FALSE(buffer.store(3));
  EXPECT_TRUE(buffer.store(4));  // full: 1 is evicted
  EXPECT_TRUE(buffer.store(5));  // then 2
  EXPECT_EQ(buffer.lost(), 2u);
  EXPECT_EQ(buffer.take().value(), 3);  // FIFO: oldest survivor first
  EXPECT_EQ(buffer.take().value(), 4);
  EXPECT_EQ(buffer.take().value(), 5);
  EXPECT_FALSE(buffer.take().has_value());
}

}  // namespace
}  // namespace dear::brake
