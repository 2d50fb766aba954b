// Robustness fuzzing of the wire decoders: random byte soup must never
// crash, read out of bounds, or loop — the sticky error flag must trip
// instead. (AddressSanitizer/valgrind make these tests much stronger; they
// are still meaningful under plain builds because every read is
// bounds-checked.)
#include <gtest/gtest.h>

#include "causal/opt_log.hpp"
#include "net/frame.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace ccpr::net {
namespace {

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  return buf;
}

TEST(WireFuzzTest, DecoderSurvivesRandomInput) {
  util::Rng rng(0xfeed);
  for (int round = 0; round < 2000; ++round) {
    const auto buf = random_bytes(rng, rng.below(64));
    Decoder dec(buf.data(), buf.size());
    // Exercise a random sequence of reads; none may misbehave.
    for (int i = 0; i < 8; ++i) {
      switch (rng.below(5)) {
        case 0:
          dec.u8();
          break;
        case 1:
          dec.u32();
          break;
        case 2:
          dec.u64();
          break;
        case 3:
          dec.varint();
          break;
        default:
          dec.bytes();
          break;
      }
    }
    // Either everything decoded within bounds or the error latch is set;
    // remaining() must never underflow.
    EXPECT_LE(dec.remaining(), buf.size());
  }
}

TEST(WireFuzzTest, LogDecoderSurvivesRandomInput) {
  util::Rng rng(0xbead);
  for (int round = 0; round < 2000; ++round) {
    const auto buf = random_bytes(rng, rng.below(96));
    Decoder dec(buf.data(), buf.size());
    const causal::Log log = causal::decode_log(dec);
    if (dec.ok()) {
      // Whatever decoded must re-encode without issue.
      Encoder enc;
      causal::encode_log(enc, log);
    }
  }
}

TEST(WireFuzzTest, TruncatedValidMessagesFailCleanly) {
  // Build a valid log, then decode every strict prefix: all but the full
  // buffer must either fail or decode a shorter valid structure.
  causal::Log log{
      causal::LogEntry{1, 12345, causal::DestSet{0, 3, 7}},
      causal::LogEntry{2, 9, causal::DestSet{}},
  };
  Encoder enc;
  causal::encode_log(enc, log);
  const auto& buf = enc.buffer();
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Decoder dec(buf.data(), cut);
    const causal::Log out = causal::decode_log(dec);
    if (cut < buf.size()) {
      // The entry count prefix promises more than a strict prefix holds,
      // so a successful decode of the *complete* structure is impossible.
      EXPECT_TRUE(!dec.ok() || out.size() < log.size() ||
                  out != log);
    }
  }
  Decoder full(buf.data(), buf.size());
  EXPECT_EQ(causal::decode_log(full), log);
  EXPECT_TRUE(full.ok());
}

TEST(WireFuzzTest, RoundTripRandomLogs) {
  util::Rng rng(0xc0de);
  for (int round = 0; round < 500; ++round) {
    causal::Log log;
    const std::uint64_t entries = rng.below(6);
    for (std::uint64_t e = 0; e < entries; ++e) {
      causal::LogEntry entry;
      entry.sender = static_cast<causal::SiteId>(rng.below(64));
      entry.clock = rng.below(1 << 20);
      const std::uint64_t dests = rng.below(5);
      for (std::uint64_t d = 0; d < dests; ++d) {
        entry.dests.insert(static_cast<causal::SiteId>(rng.below(64)));
      }
      log.push_back(std::move(entry));
    }
    Encoder enc;
    causal::encode_log(enc, log);
    Decoder dec(enc.buffer());
    EXPECT_EQ(causal::decode_log(dec), log);
    EXPECT_TRUE(dec.ok());
    EXPECT_TRUE(dec.exhausted());
  }
}

TEST(WireFuzzTest, FrameSizePrefixRejectsGarbage) {
  util::Rng rng(0xf7a3e);
  std::size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    // Mixed diet: pure byte soup (a random u32 almost always exceeds the
    // cap) plus crafted in-range prefixes so the accept path is exercised
    // too. Only exactly kFrameLenBytes with a value in (0, max] may decode,
    // and the decoded size must echo the little-endian u32 so the reader
    // allocates exactly what was declared.
    const std::uint32_t max = 1 + static_cast<std::uint32_t>(rng.below(1024));
    auto buf = random_bytes(rng, rng.below(8));
    if (rng.chance(0.5)) {
      const auto v = 1 + static_cast<std::uint32_t>(rng.below(2 * max));
      buf.assign({static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                  static_cast<std::uint8_t>(v >> 16),
                  static_cast<std::uint8_t>(v >> 24)});
    }
    const auto size = decode_frame_size(buf.data(), buf.size(), max);
    if (size.has_value()) {
      ++accepted;
      ASSERT_EQ(buf.size(), kFrameLenBytes);
      EXPECT_GT(*size, 0u);
      EXPECT_LE(*size, max);
      std::uint32_t echo = 0;
      for (std::size_t i = 0; i < kFrameLenBytes; ++i) {
        echo |= static_cast<std::uint32_t>(buf[i]) << (8 * i);
      }
      EXPECT_EQ(*size, echo);
    }
  }
  EXPECT_GT(accepted, 0u);  // the fuzz must exercise the accept path too
}

TEST(WireFuzzTest, FrameSizePrefixCapIsConfigurable) {
  // 0x00010000 = 65536 little-endian.
  const std::uint8_t prefix[kFrameLenBytes] = {0x00, 0x00, 0x01, 0x00};
  EXPECT_FALSE(decode_frame_size(prefix, sizeof prefix, 65535).has_value());
  ASSERT_TRUE(decode_frame_size(prefix, sizeof prefix, 65536).has_value());
  EXPECT_EQ(*decode_frame_size(prefix, sizeof prefix, 65536), 65536u);
  // An all-ones prefix must be rejected even by the default generous cap
  // rather than turning into a ~4 GiB allocation.
  const std::uint8_t huge[kFrameLenBytes] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(
      decode_frame_size(huge, sizeof huge, kDefaultMaxFrameBytes).has_value());
}

TEST(WireFuzzTest, FrameBodySurvivesRandomInput) {
  util::Rng rng(0xfa7e);
  for (int round = 0; round < 4000; ++round) {
    const auto buf = random_bytes(rng, rng.below(128));
    const auto msg = decode_frame_body(buf.data(), buf.size());
    if (msg.has_value()) {
      // Anything accepted must satisfy the envelope invariants and
      // re-encode to the same bytes (prefix included).
      EXPECT_LE(msg->payload_bytes, msg->body.size());
      const auto wire = encode_frame(*msg);
      ASSERT_GE(wire.size(), kFrameLenBytes);
      EXPECT_TRUE(std::equal(wire.begin() + kFrameLenBytes, wire.end(),
                             buf.begin(), buf.end()));
    }
  }
}

TEST(WireFuzzTest, FrameCorruptionNeverMisdecodesSilently) {
  // Flip every single byte of a valid frame body in turn: each mutant must
  // either be rejected or decode to something internally consistent — never
  // crash or produce an envelope whose payload exceeds its body.
  util::Rng rng(0x5eed5);
  Message msg;
  msg.kind = MsgKind::kUpdate;
  msg.src = 5;
  msg.dst = 1;
  msg.body = random_bytes(rng, 24);
  msg.payload_bytes = 10;
  msg.chan_epoch = 0x1ca51;
  msg.chan_seq = 1234567;
  const auto wire = encode_frame(msg);
  for (std::size_t i = kFrameLenBytes; i < wire.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                    std::uint8_t{0xff}}) {
      auto mutant = wire;
      mutant[i] = static_cast<std::uint8_t>(mutant[i] ^ flip);
      const auto got = decode_frame_body(mutant.data() + kFrameLenBytes,
                                         mutant.size() - kFrameLenBytes);
      if (got.has_value()) {
        EXPECT_LE(got->payload_bytes, got->body.size());
      }
    }
  }
}

}  // namespace
}  // namespace ccpr::net
