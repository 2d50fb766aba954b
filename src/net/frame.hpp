// TCP frame codec: the length-prefixed wire representation of one
// net::Message, used by the real-network transport and by the client
// request/response protocol's outer framing.
//
// Layout on the wire:
//
//   [u32 length]                      little-endian, bytes that follow
//   [u8  kind][varint src][varint dst][varint chan_epoch][varint chan_seq]
//   [varint payload_bytes][varint body_len][raw body]
//
// `chan_epoch`/`chan_seq` are the update-channel stamps carried in Message
// itself (see message.hpp): assigned by the sending site's Durability layer,
// which owns per-channel FIFO and at-most-once admission at the receiver.
// Both are 0 (one byte each) on non-update traffic. The decoder is
// bounds-checked via net::Decoder, and both sides reject frames whose
// declared length exceeds a configurable maximum so a corrupt or hostile
// length prefix cannot force an unbounded allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "net/wire.hpp"

namespace ccpr::net {

/// Bytes of the fixed length prefix preceding every frame.
inline constexpr std::size_t kFrameLenBytes = 4;

/// Default ceiling on the framed (post-prefix) size. Generous for protocol
/// traffic (updates carry one value plus logs) yet small enough that a
/// garbage length prefix cannot exhaust memory.
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 16u * 1024 * 1024;

/// Serialize `msg` into a self-contained frame, including the leading u32
/// length prefix.
std::vector<std::uint8_t> encode_frame(const Message& msg);

/// Parse the u32 length prefix. Returns std::nullopt unless exactly
/// kFrameLenBytes are supplied or the declared size exceeds `max_frame_bytes`
/// or is zero (a frame always carries at least a kind byte).
std::optional<std::uint32_t> decode_frame_size(const std::uint8_t* data,
                                               std::size_t len,
                                               std::uint32_t max_frame_bytes);

/// Decode a frame body (the bytes *after* the length prefix). Returns
/// std::nullopt on any malformed input: truncation, trailing garbage,
/// unknown message kind, or a body larger than the enclosing frame.
std::optional<Message> decode_frame_body(const std::uint8_t* data,
                                         std::size_t len);

}  // namespace ccpr::net
