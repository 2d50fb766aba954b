// TCP frame codec tests: roundtrip fidelity plus rejection of every class of
// malformed input the reader can encounter on a real socket.
#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace ccpr::net {
namespace {

Message make_msg(MsgKind kind, SiteId src, SiteId dst,
                 std::vector<std::uint8_t> body, std::uint32_t payload) {
  Message m;
  m.kind = kind;
  m.src = src;
  m.dst = dst;
  m.body = std::move(body);
  m.payload_bytes = payload;
  return m;
}

TEST(FrameTest, RoundTripAllKinds) {
  for (const MsgKind kind :
       {MsgKind::kUpdate, MsgKind::kFetchReq, MsgKind::kFetchResp,
        MsgKind::kCatchupReq, MsgKind::kCatchupResp}) {
    Message msg = make_msg(kind, 3, 7, {0xde, 0xad, 0xbe, 0xef, 0x01}, 2);
    msg.chan_epoch = 0x1234567;
    msg.chan_seq = 99;
    const auto wire = encode_frame(msg);

    const auto size =
        decode_frame_size(wire.data(), kFrameLenBytes, kDefaultMaxFrameBytes);
    ASSERT_TRUE(size.has_value());
    EXPECT_EQ(*size, wire.size() - kFrameLenBytes);

    const auto got = decode_frame_body(wire.data() + kFrameLenBytes, *size);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, kind);
    EXPECT_EQ(got->src, 3u);
    EXPECT_EQ(got->dst, 7u);
    EXPECT_EQ(got->body, msg.body);
    EXPECT_EQ(got->payload_bytes, 2u);
    EXPECT_EQ(got->chan_epoch, 0x1234567u);
    EXPECT_EQ(got->chan_seq, 99u);
  }
}

TEST(FrameTest, RoundTripEmptyBody) {
  const Message msg = make_msg(MsgKind::kFetchReq, 0, 1, {}, 0);
  const auto wire = encode_frame(msg);
  const auto got = decode_frame_body(wire.data() + kFrameLenBytes,
                                     wire.size() - kFrameLenBytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->body.empty());
  EXPECT_EQ(got->chan_epoch, 0u);
  EXPECT_EQ(got->chan_seq, 0u);
}

TEST(FrameTest, LargeChanStampsAndSiteIds) {
  Message msg = make_msg(MsgKind::kUpdate, 0xfffffffeu, 0x12345678u,
                         std::vector<std::uint8_t>(1000, 0x5a), 1000);
  msg.chan_epoch = 0xdeadbeefcafef00dULL;
  msg.chan_seq = 0xffffffffffffffffULL;
  const auto wire = encode_frame(msg);
  const auto got = decode_frame_body(wire.data() + kFrameLenBytes,
                                     wire.size() - kFrameLenBytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, 0xfffffffeu);
  EXPECT_EQ(got->dst, 0x12345678u);
  EXPECT_EQ(got->chan_epoch, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(got->chan_seq, 0xffffffffffffffffULL);
}

TEST(FrameTest, SizeRejectsZero) {
  const std::uint8_t zero[kFrameLenBytes] = {0, 0, 0, 0};
  EXPECT_FALSE(
      decode_frame_size(zero, sizeof zero, kDefaultMaxFrameBytes).has_value());
}

TEST(FrameTest, SizeRejectsOversized) {
  // 1025 little-endian with a 1024-byte cap.
  const std::uint8_t big[kFrameLenBytes] = {0x01, 0x04, 0, 0};
  EXPECT_FALSE(decode_frame_size(big, sizeof big, 1024).has_value());
  const std::uint8_t fits[kFrameLenBytes] = {0x00, 0x04, 0, 0};
  EXPECT_TRUE(decode_frame_size(fits, sizeof fits, 1024).has_value());
}

TEST(FrameTest, SizeRejectsShortPrefix) {
  const std::uint8_t partial[2] = {0x10, 0x00};
  EXPECT_FALSE(
      decode_frame_size(partial, sizeof partial, kDefaultMaxFrameBytes)
          .has_value());
}

TEST(FrameTest, BodyRejectsTruncation) {
  const Message msg =
      make_msg(MsgKind::kUpdate, 1, 2, {1, 2, 3, 4, 5, 6, 7, 8}, 4);
  const auto wire = encode_frame(msg);
  const std::uint8_t* body = wire.data() + kFrameLenBytes;
  const std::size_t body_len = wire.size() - kFrameLenBytes;
  // Every strict prefix of a valid frame body must be rejected.
  for (std::size_t cut = 0; cut < body_len; ++cut) {
    EXPECT_FALSE(decode_frame_body(body, cut).has_value())
        << "prefix of length " << cut << " decoded";
  }
}

TEST(FrameTest, BodyRejectsTrailingGarbage) {
  const Message msg = make_msg(MsgKind::kUpdate, 1, 2, {1, 2, 3}, 0);
  auto wire = encode_frame(msg);
  wire.push_back(0x00);
  EXPECT_FALSE(decode_frame_body(wire.data() + kFrameLenBytes,
                                 wire.size() - kFrameLenBytes)
                   .has_value());
}

TEST(FrameTest, BodyRejectsUnknownKind) {
  const Message msg = make_msg(MsgKind::kUpdate, 1, 2, {1, 2, 3}, 0);
  auto wire = encode_frame(msg);
  wire[kFrameLenBytes] = 0x7f;  // kind byte
  EXPECT_FALSE(decode_frame_body(wire.data() + kFrameLenBytes,
                                 wire.size() - kFrameLenBytes)
                   .has_value());
  wire[kFrameLenBytes] = 0x00;
  EXPECT_FALSE(decode_frame_body(wire.data() + kFrameLenBytes,
                                 wire.size() - kFrameLenBytes)
                   .has_value());
}

TEST(FrameTest, BodyRejectsPayloadLargerThanBody) {
  const Message msg = make_msg(MsgKind::kUpdate, 1, 2, {1, 2, 3}, 3);
  auto wire = encode_frame(msg);
  // Locate the payload_bytes varint: kind(1) + src(1) + dst(1) +
  // chan_epoch(1) + chan_seq(1) for these small values; bump it beyond
  // body_len.
  wire[kFrameLenBytes + 5] = 0x04;
  EXPECT_FALSE(decode_frame_body(wire.data() + kFrameLenBytes,
                                 wire.size() - kFrameLenBytes)
                   .has_value());
}

TEST(FrameTest, EncodedPrefixMatchesBodyLength) {
  const Message msg =
      make_msg(MsgKind::kFetchResp, 9, 4, std::vector<std::uint8_t>(300, 7),
               128);
  const auto wire = encode_frame(msg);
  std::uint32_t declared = 0;
  std::memcpy(&declared, wire.data(), kFrameLenBytes);
  // Encoder writes little-endian; this test assumes a little-endian host
  // like every other wire test in the suite.
  EXPECT_EQ(declared, wire.size() - kFrameLenBytes);
}

}  // namespace
}  // namespace ccpr::net
