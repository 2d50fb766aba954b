// Transport-level message envelope shared by the simulated and TCP
// runtimes. `body` is an opaque, protocol-defined byte string; the
// payload/control split exists purely so the metrics layer can report the
// paper's "message size" metric net of replicated value bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace ccpr::net {

using SiteId = std::uint32_t;

enum class MsgKind : std::uint8_t {
  kUpdate = 1,      ///< write propagation (Multicast primitive)
  kFetchReq = 2,    ///< RemoteFetch request
  kFetchResp = 3,   ///< RemoteFetch response (remote return event)
  kCatchupReq = 4,  ///< anti-entropy: durable watermark announcement
  kCatchupResp = 5, ///< anti-entropy: responder's retention bounds
  kHeartbeat = 6,   ///< failure detector ping (body: sender steady-clock us)
  kHeartbeatAck = 7,///< failure detector pong (body echoed verbatim)
  /// Sharded-engine wrapper: [u8 inner_kind][varint shard][varint ntokens]
  /// {[varint shard_j][varint len][token]}*[inner body]. Carries a protocol
  /// message addressed to one engine shard plus the sending site's
  /// cross-shard coverage tokens (see causal/shard_map.hpp). Only emitted
  /// when `engine-shards > 1`.
  kShardEnvelope = 8,
};

struct Message {
  MsgKind kind = MsgKind::kUpdate;
  SiteId src = 0;
  SiteId dst = 0;
  std::vector<std::uint8_t> body;
  /// Bytes of `body` that carry the replicated value itself; the remainder
  /// is protocol control metadata.
  std::uint32_t payload_bytes = 0;
  /// Per-(src, dst) update channel stamps, assigned by the sending site
  /// server's Durability layer for kUpdate messages (0 on other kinds and
  /// on the in-process runtimes). chan_epoch survives restarts via the WAL
  /// when the site has a data dir, and chan_seq is dense per update, so
  /// receivers drop duplicates, detect gaps (updates lost while they were
  /// down or to queue overflow) and request catch-up.
  std::uint64_t chan_epoch = 0;
  std::uint64_t chan_seq = 0;

  std::size_t control_bytes() const noexcept {
    // payload_bytes > body.size() is a construction bug (or a corrupt frame
    // that slipped past validation); without the guard the subtraction
    // underflows and poisons the byte metrics with huge values.
    CCPR_DEBUG_ASSERT(payload_bytes <= body.size());
    if (payload_bytes > body.size()) return 0;
    return body.size() - payload_bytes;
  }
};

/// The kind used for transport metric classification: a shard envelope
/// counts as its inner message's kind (first body byte), so the paper's
/// update/fetch message counters stay meaningful when `engine-shards > 1`.
inline MsgKind classify_kind(const Message& msg) noexcept {
  if (msg.kind != MsgKind::kShardEnvelope || msg.body.empty()) return msg.kind;
  return static_cast<MsgKind>(msg.body[0]);
}

/// Receives messages addressed to one site. The transport guarantees that
/// deliveries to a single sink never overlap (they are serialized), and that
/// messages on one (src, dst) channel arrive in FIFO order. TcpTransport
/// relaxes the second guarantee around a reconnect, where a resent batch
/// can repeat or overtake frames; its site server restores FIFO and
/// at-most-once for updates with the Durability channel stamps.
class IMessageSink {
 public:
  virtual ~IMessageSink() = default;
  virtual void deliver(Message msg) = 0;
};

/// Point-to-point message transport between registered sites.
class ITransport {
 public:
  virtual ~ITransport() = default;
  /// Attach the handler for messages addressed to `site`.
  virtual void connect(SiteId site, IMessageSink* sink) = 0;
  /// Asynchronously deliver msg to msg.dst (FIFO per channel).
  virtual void send(Message msg) = 0;
};

}  // namespace ccpr::net
