#include "net/frame.hpp"

namespace ccpr::net {

std::vector<std::uint8_t> encode_frame(const Message& msg) {
  Encoder enc(msg.body.size() + 32);
  enc.u32(0);  // placeholder for the length prefix, patched below
  enc.u8(static_cast<std::uint8_t>(msg.kind));
  enc.varint(msg.src);
  enc.varint(msg.dst);
  enc.varint(msg.chan_epoch);
  enc.varint(msg.chan_seq);
  enc.varint(msg.payload_bytes);
  enc.varint(msg.body.size());
  enc.raw(msg.body.data(), msg.body.size());
  std::vector<std::uint8_t> out = enc.take();
  const auto framed = static_cast<std::uint32_t>(out.size() - kFrameLenBytes);
  for (std::size_t i = 0; i < kFrameLenBytes; ++i) {
    out[i] = static_cast<std::uint8_t>(framed >> (8 * i));
  }
  return out;
}

std::optional<std::uint32_t> decode_frame_size(const std::uint8_t* data,
                                               std::size_t len,
                                               std::uint32_t max_frame_bytes) {
  if (len != kFrameLenBytes) return std::nullopt;
  Decoder dec(data, len);
  const std::uint32_t framed = dec.u32();
  if (!dec.ok() || framed == 0 || framed > max_frame_bytes) {
    return std::nullopt;
  }
  return framed;
}

std::optional<Message> decode_frame_body(const std::uint8_t* data,
                                         std::size_t len) {
  Decoder dec(data, len);
  Message msg;
  const std::uint8_t kind = dec.u8();
  switch (kind) {
    case static_cast<std::uint8_t>(MsgKind::kUpdate):
    case static_cast<std::uint8_t>(MsgKind::kFetchReq):
    case static_cast<std::uint8_t>(MsgKind::kFetchResp):
    case static_cast<std::uint8_t>(MsgKind::kCatchupReq):
    case static_cast<std::uint8_t>(MsgKind::kCatchupResp):
    case static_cast<std::uint8_t>(MsgKind::kHeartbeat):
    case static_cast<std::uint8_t>(MsgKind::kHeartbeatAck):
    case static_cast<std::uint8_t>(MsgKind::kShardEnvelope):
      msg.kind = static_cast<MsgKind>(kind);
      break;
    default:
      return std::nullopt;
  }
  msg.src = static_cast<SiteId>(dec.varint());
  msg.dst = static_cast<SiteId>(dec.varint());
  msg.chan_epoch = dec.varint();
  msg.chan_seq = dec.varint();
  msg.payload_bytes = static_cast<std::uint32_t>(dec.varint());
  const std::uint64_t body_len = dec.varint();
  if (!dec.ok() || body_len != dec.remaining()) return std::nullopt;
  const std::size_t body_start = len - dec.remaining();
  msg.body.assign(data + body_start, data + len);
  if (msg.payload_bytes > msg.body.size()) return std::nullopt;
  return msg;
}

}  // namespace ccpr::net
