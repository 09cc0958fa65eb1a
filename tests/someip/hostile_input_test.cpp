// Hostile input for the wire decoders: seeded truncations, length-field
// lies and random byte corruption of valid encodings. Every malformed input
// must be rejected (false) without crashing or reading out of bounds, and a
// lying count must not make the decoder size anything beyond the bytes it
// actually received. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "brake/types.hpp"
#include "common/rng.hpp"
#include "someip/message.hpp"
#include "someip/serialization.hpp"

namespace dear::someip {
namespace {

/// Wire size of one brake::Vehicle (u32 id + two f64).
constexpr std::size_t kVehicleBytes = 20;
/// Offset of the vehicle count in an encoded VehicleList (two u64 ids).
constexpr std::size_t kCountOffset = 16;
/// Offset of the SOME/IP length field in a message header.
constexpr std::size_t kLengthOffset = 4;
/// Offset of the protocol version byte in a message header.
constexpr std::size_t kProtocolOffset = 12;

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint32_t value) {
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * (3 - i)));
  }
}

std::vector<std::uint8_t> prefix(const std::vector<std::uint8_t>& bytes, std::size_t size) {
  return {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(size)};
}

brake::VehicleList random_vehicle_list(common::Rng& rng) {
  brake::VehicleList list;
  list.frame_id = rng();
  list.lane_frame_id = rng();
  list.vehicles.resize(rng.next_below(12));
  for (brake::Vehicle& vehicle : list.vehicles) {
    vehicle.vehicle_id = static_cast<std::uint32_t>(rng());
    vehicle.distance_m = rng.uniform01() * 200.0;
    vehicle.closing_speed = rng.uniform01() * 40.0 - 20.0;
  }
  return list;
}

Message random_message(common::Rng& rng) {
  Message message;
  message.service = static_cast<ServiceId>(rng());
  message.method = static_cast<MethodId>(rng());
  message.client = static_cast<ClientId>(rng());
  message.session = static_cast<SessionId>(rng());
  message.type = MessageType::kNotification;
  message.payload.resize(rng.next_below(64));
  for (std::uint8_t& byte : message.payload) {
    byte = static_cast<std::uint8_t>(rng());
  }
  if (rng.chance(0.5)) {
    message.tag = WireTag{static_cast<std::int64_t>(rng() >> 1),
                          static_cast<std::uint32_t>(rng())};
  }
  return message;
}

class HostileInput : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HostileInput, VehicleListRejectsTruncationAndCountLies) {
  common::Rng rng(GetParam());
  const brake::VehicleList original = random_vehicle_list(rng);
  const std::vector<std::uint8_t> bytes = encode_payload(original);
  ASSERT_EQ(bytes.size(), kCountOffset + 4 + original.vehicles.size() * kVehicleBytes);

  brake::VehicleList decoded;
  ASSERT_TRUE(decode_payload(bytes, decoded));
  EXPECT_EQ(decoded, original);

  // Short tails: every strict prefix is rejected.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_payload(prefix(bytes, cut), decoded)) << "cut=" << cut;
  }

  // Count lies: any count above the real one runs the reader dry, and the
  // decoded vector never grows past what the bytes hold.
  const auto real = static_cast<std::uint32_t>(original.vehicles.size());
  for (const std::uint32_t lie :
       {real + 1, real + 1 + static_cast<std::uint32_t>(rng.next_below(1000)), 0x7FFFFFFFu,
        0xFFFFFFFFu}) {
    std::vector<std::uint8_t> lying = bytes;
    put_u32(lying, kCountOffset, lie);
    brake::VehicleList fresh;
    EXPECT_FALSE(decode_payload(lying, fresh)) << "count=" << lie;
    EXPECT_LE(fresh.vehicles.size(), original.vehicles.size()) << "count=" << lie;
    EXPECT_LE(fresh.vehicles.capacity(), 2 * original.vehicles.size() + 1) << "count=" << lie;
  }

  // A count lie on a truncated tail fails too.
  std::vector<std::uint8_t> short_lie = prefix(bytes, kCountOffset + 4);
  put_u32(short_lie, kCountOffset, 0xFFFFFFFFu);
  EXPECT_FALSE(decode_payload(short_lie, decoded));
}

TEST_P(HostileInput, MessageDecodeRejectsTruncationAndLengthLies) {
  common::Rng rng(GetParam());
  const Message original = random_message(rng);
  const std::vector<std::uint8_t> wire = original.encode();
  Message scratch;
  ASSERT_TRUE(Message::decode_into(wire.data(), wire.size(), scratch));
  EXPECT_EQ(scratch.payload, original.payload);
  EXPECT_EQ(scratch.tag, original.tag);

  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(Message::decode_into(wire.data(), cut, scratch)) << "cut=" << cut;
  }

  // The length field must match the datagram exactly.
  const auto real = static_cast<std::uint32_t>(wire.size() - 8);
  for (const std::uint32_t lie : {0u, 7u, real - 1, real + 1,
                                  real + 1 + static_cast<std::uint32_t>(rng.next_below(1 << 20)),
                                  0xFFFFFFFFu}) {
    std::vector<std::uint8_t> lying = wire;
    put_u32(lying, kLengthOffset, lie);
    EXPECT_FALSE(Message::decode_into(lying.data(), lying.size(), scratch)) << "length=" << lie;
    EXPECT_LE(scratch.payload.size(), wire.size());
  }

  // A tagged version byte on an untagged body too short for the trailer,
  // and an unknown version, are rejected.
  std::vector<std::uint8_t> bad_version = wire;
  bad_version[kProtocolOffset] = 0x7F;
  EXPECT_FALSE(Message::decode_into(bad_version.data(), bad_version.size(), scratch));
  if (!original.tag.has_value() && original.payload.size() < kTagTrailerSize) {
    std::vector<std::uint8_t> fake_tag = wire;
    fake_tag[kProtocolOffset] = kTaggedProtocolVersion;
    EXPECT_FALSE(Message::decode_into(fake_tag.data(), fake_tag.size(), scratch));
  }
}

TEST_P(HostileInput, RandomCorruptionNeverCrashes) {
  common::Rng rng(GetParam() + 1000);
  const std::vector<std::uint8_t> list_bytes = encode_payload(random_vehicle_list(rng));
  const std::vector<std::uint8_t> wire = random_message(rng).encode();
  Message scratch;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> list_mutant = list_bytes;
    std::vector<std::uint8_t> wire_mutant = wire;
    const auto flip = [&rng](std::vector<std::uint8_t>& bytes) {
      bytes[rng.next_below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    };
    for (std::uint64_t flips = 1 + rng.next_below(4); flips > 0; --flips) {
      flip(list_mutant);
      flip(wire_mutant);
    }
    brake::VehicleList decoded;
    if (decode_payload(list_mutant, decoded)) {
      EXPECT_LE(decoded.vehicles.size(), list_mutant.size() / kVehicleBytes);
    }
    if (Message::decode_into(wire_mutant.data(), wire_mutant.size(), scratch)) {
      EXPECT_LE(scratch.payload.size() + kHeaderSize, wire_mutant.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HostileInput, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace dear::someip
