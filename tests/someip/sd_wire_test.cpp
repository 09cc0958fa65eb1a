#include "someip/sd_wire.hpp"

#include <gtest/gtest.h>

#include "ara/com/someip_binding.hpp"

namespace dear::someip {
namespace {

SdEndpointOption endpoint(std::uint32_t address, std::uint16_t port) {
  SdEndpointOption option;
  option.address = address;
  option.port = port;
  return option;
}

TEST(SdWire, EmptyMessageRoundTrip) {
  SdMessage message;
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

TEST(SdWire, OfferEntryRoundTrip) {
  SdMessage message;
  message.entries.push_back(make_offer_entry(0x1234, 0x0001, endpoint(0xC0A80001, 30509)));
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->entries.size(), 1u);
  const SdEntry& entry = decoded->entries[0];
  EXPECT_EQ(entry.type, SdEntryType::kOfferService);
  EXPECT_EQ(entry.service, 0x1234);
  EXPECT_EQ(entry.instance, 0x0001);
  EXPECT_EQ(entry.ttl, 3u);
  EXPECT_FALSE(entry.is_stop());
  ASSERT_EQ(entry.options.size(), 1u);
  EXPECT_EQ(entry.options[0].address, 0xC0A80001);
  EXPECT_EQ(entry.options[0].port, 30509);
  EXPECT_EQ(entry.options[0].protocol, SdProtocol::kUdp);
}

TEST(SdWire, MultipleEntriesShareOptionArray) {
  SdMessage message;
  message.entries.push_back(make_offer_entry(0x1111, 1, endpoint(0x0A000001, 1000)));
  message.entries.push_back(make_find_entry(0x2222, 2));
  message.entries.push_back(make_offer_entry(0x3333, 3, endpoint(0x0A000002, 2000)));
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
  EXPECT_TRUE(decoded->entries[1].options.empty());
  EXPECT_EQ(decoded->entries[2].options[0].port, 2000);
}

TEST(SdWire, StopOfferHasZeroTtl) {
  const SdEntry stop = make_stop_offer_entry(0x1234, 1);
  EXPECT_TRUE(stop.is_stop());
  SdMessage message;
  message.entries.push_back(stop);
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->entries[0].is_stop());
}

TEST(SdWire, TtlIs24Bits) {
  SdMessage message;
  SdEntry entry = make_find_entry(1, 1);
  entry.ttl = 0x00FFFFFF;  // max 24-bit value
  message.entries.push_back(entry);
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->entries[0].ttl, 0x00FFFFFFu);
}

TEST(SdWire, FlagsPreserved) {
  SdMessage message;
  message.flags = 0x80;
  const auto decoded = SdMessage::decode(message.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->flags, 0x80);
}

TEST(SdWire, EntrySizeOnWire) {
  SdMessage message;
  message.entries.push_back(make_find_entry(1, 1));
  // header 8 + 1 entry (16) + empty options length field (4).
  EXPECT_EQ(message.encode().size(), 8u + 16u + 4u);
  message.entries[0].options.push_back(endpoint(1, 1));
  EXPECT_EQ(message.encode().size(), 8u + 16u + 4u + 12u);
}

TEST(SdWire, DecodeRejectsTruncatedBuffers) {
  SdMessage message;
  message.entries.push_back(make_offer_entry(1, 1, endpoint(1, 1)));
  const auto wire = message.encode();
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    std::vector<std::uint8_t> truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(SdMessage::decode(truncated).has_value()) << "cut=" << cut;
  }
}

TEST(SdWire, DecodeRejectsDanglingOptionReference) {
  SdMessage message;
  message.entries.push_back(make_offer_entry(1, 1, endpoint(1, 1)));
  auto wire = message.encode();
  // Corrupt the option count nibble to reference two options when only one
  // exists.
  wire[8 + 3] = 0x20;
  EXPECT_FALSE(SdMessage::decode(wire).has_value());
}

TEST(SdWire, DecodeRejectsMisalignedEntryLength) {
  SdMessage message;
  auto wire = message.encode();
  wire[7] = 5;  // entries length not a multiple of 16
  EXPECT_FALSE(SdMessage::decode(wire).has_value());
}

TEST(SdWire, CanTravelInsideSomeipMessage) {
  SdMessage sd;
  sd.entries.push_back(make_offer_entry(0x1234, 1, endpoint(0x7F000001, 30490)));
  someip::Message carrier;
  carrier.service = ara::com::SomeIpBinding::kControlService;
  carrier.method = 0x8100;  // SD method id
  carrier.type = MessageType::kNotification;
  carrier.payload = sd.encode();
  const auto decoded_carrier = someip::Message::decode(carrier.encode());
  ASSERT_TRUE(decoded_carrier.has_value());
  const auto decoded_sd = SdMessage::decode(decoded_carrier->payload);
  ASSERT_TRUE(decoded_sd.has_value());
  EXPECT_EQ(*decoded_sd, sd);
}

}  // namespace
}  // namespace dear::someip
