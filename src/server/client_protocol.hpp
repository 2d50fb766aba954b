// The framed request/response protocol spoken between the client library
// and a site server's client port. Shared by src/server and src/client so
// the two sides cannot drift.
//
// Every request and response is one length-prefixed frame:
//
//   [u32 length][body]
//
// Request body:  [u8 op][op-specific fields]
// Response body: [u8 status][op-specific fields]
//
//   kPing      -> ok
//   kPut       var:varint value:bytes [opts:u8 [session:varint req:varint]]
//              -> ok writer+1:varint seq:varint lamport:varint
//                 [flags:u8 [tokens]]
//   kGet       var:varint [opts:u8]
//              -> ok value (causal::encode_value) [flags:u8 [tokens]]
//   kSnapshot  count:varint var:varint... [opts:u8]
//              -> ok count:varint value... [flags:u8 [tokens]]
//                                            (all vars must be local)
//
//   The trailing opts byte on kPut/kGet/kSnapshot is optional (old clients
//   omit it; the response then ends after the op-specific fields, exactly
//   as before). opts bit0 (kWantTokens) asks the server to append coverage
//   tokens for every remote site so the client can fail over without a
//   round-trip to a possibly-dead home site. opts bit1 (kHasRequestId) on
//   kPut says session/req follow: the server remembers the last request id
//   per session and replays the stored result instead of re-executing, so
//   a put retried after a lost response stays idempotent. When the request
//   carried an opts byte the response carries a flags byte: bit0 = this
//   put was a dedup replay, bit1 = tokens follow as
//   count:varint {site:varint token:bytes}...
//   kToken     target:varint
//              -> ok token:bytes             (coverage_token for target)
//   kCovered   token:bytes wait_us:varint
//              -> ok covered:u8              (waits up to wait_us first)
//   kStatus    -> ok site:varint alg:u8 writes:varint reads:varint
//                    pending:varint peer_msgs_sent:varint
//                    peer_msgs_recv:varint peer_queued:varint
//                    region:bytes                 (empty = no topology)
//                    regions:varint {name:bytes peers:varint up:varint}...
//                    suspected:varint {site:varint}...
//                    shards:varint {writes:varint reads:varint
//                                   pending:varint qdepth:varint
//                                   qcap:varint parked_reads:varint
//                                   covered_waiters:varint}...
//                    (per-region peer health, where `up` counts peers with
//                    an established outbound connection and the
//                    flat-cluster response is region:"" regions:0; the
//                    peers this site's failure detector currently believes
//                    unreachable; one activity row per engine shard)
//   kMetrics   -> ok text:bytes              (Prometheus exposition text:
//                    merged protocol+transport counters, engine queue
//                    depths, per-peer wire stats)
//   kStoreStat -> ok engine:u8 keys:varint resident_bytes:varint
//                    index_slots:varint lookups:varint probes:varint
//                    spilled_keys:varint spill_segment_bytes:varint
//                    spill_reads:varint spill_writes:varint
//                    compactions:varint (the value-store engine's counter
//                    snapshot, taken on the apply thread)
//   kChaos     action:u8 (0 = clear all rules, 1 = set rule)
//              [peer+1:varint drop_milli:varint delay_us:varint
//               rate_per_s:varint partition:u8]   (set only; peer+1 = 0
//                    installs the rule toward every peer)
//              -> ok                          (admin: net/chaos.hpp fault
//                    injection on this site's transport links)
//
//   kEngineStat -> ok shards:varint parked_envelopes:varint
//                     malformed_envelopes:varint
//                     {writes:varint reads:varint pending:varint
//                      depth:varint capacity:varint peak:varint
//                      producer_waits:varint parked_reads:varint
//                      covered_waiters:varint enqueued_total:varint}...
//                  (admin: one row per engine shard plus the cross-shard
//                  envelope-admission gauges)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace ccpr::server {

enum class ClientOp : std::uint8_t {
  kPing = 1,
  kPut = 2,
  kGet = 3,
  kSnapshot = 4,
  kToken = 5,
  kCovered = 6,
  kStatus = 7,
  kMetrics = 8,
  kChaos = 9,
  kStoreStat = 10,
  kEngineStat = 11,
};

enum class ClientStatus : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,
  kNotReplicated = 2,
  kShuttingDown = 3,
  /// Served to reads that would park on a fetch no suspected replica can
  /// answer: every replica of the variable is currently believed down, so
  /// the server fails fast instead of burning the fetch timeout.
  kUnavailable = 4,
};

/// Request-side opts bits (trailing u8 on kPut/kGet/kSnapshot).
inline constexpr std::uint8_t kReqWantTokens = 0x1;
inline constexpr std::uint8_t kReqHasRequestId = 0x2;

/// Response-side flags bits (present iff the request carried opts).
inline constexpr std::uint8_t kRespDupReplay = 0x1;
inline constexpr std::uint8_t kRespHasTokens = 0x2;

/// Write one length-prefixed frame. Returns false on socket error.
inline bool write_client_frame(int fd,
                               const std::vector<std::uint8_t>& body) {
  net::Encoder enc(body.size() + net::kFrameLenBytes);
  enc.u32(static_cast<std::uint32_t>(body.size()));
  enc.raw(body.data(), body.size());
  return net::write_all(fd, enc.buffer().data(), enc.buffer().size());
}

/// Read one length-prefixed frame; nullopt on EOF, socket error, or a
/// length prefix outside (0, max_frame_bytes].
inline std::optional<std::vector<std::uint8_t>> read_client_frame(
    int fd, std::uint32_t max_frame_bytes) {
  std::uint8_t lenbuf[net::kFrameLenBytes];
  if (!net::read_all(fd, lenbuf, sizeof lenbuf)) return std::nullopt;
  const auto size =
      net::decode_frame_size(lenbuf, sizeof lenbuf, max_frame_bytes);
  if (!size) return std::nullopt;
  std::vector<std::uint8_t> body(*size);
  if (!net::read_all(fd, body.data(), body.size())) return std::nullopt;
  return body;
}

}  // namespace ccpr::server
