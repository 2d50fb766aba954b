// Deterministic VarId -> engine-shard map plus the shard-envelope codec.
//
// A site running with `engine-shards N` partitions its keyspace into N
// independent protocol instances ("engine shards"). Every runtime — sim
// and TCP — derives the same partition from the cluster-wide shard
// count, so shard k's protocol at site i only ever talks to shard k's
// protocol at site j. Cross-shard causal dependencies are carried on the
// wire as explicit coverage tokens (the same freshness requirement client
// session migration already uses): an update sent by shard k is wrapped in
// a kShardEnvelope that names the shard and attaches, for every *other*
// shard at the sending site, that shard's coverage token for the
// destination. The receiver holds the inner message until its own shards
// cover those tokens, which restores exactly the cross-shard causal order
// the single-engine runtime got for free.
//
// Envelope body layout (inner kind first, so transports can classify
// metrics by peeking one byte):
//
//   [u8 inner_kind][varint shard][varint ntokens]
//     { [varint shard_j][varint token_len][token bytes] }*
//   [inner body, raw]
//
// The envelope message copies src/dst/chan_epoch/chan_seq/payload_bytes
// from the inner message, so per-channel FIFO dedup and the paper's
// metadata-bytes accounting (control_bytes = frame minus payload) keep
// working; token bytes are automatically counted as metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "causal/types.hpp"
#include "net/message.hpp"

namespace ccpr::causal {

/// Deterministic, version-stable VarId -> shard map. All sites and all
/// runtimes must agree on it, so it is a fixed mixer hash — never derived
/// from runtime state.
class ShardMap {
 public:
  ShardMap() = default;
  explicit ShardMap(std::uint32_t shards) : shards_(shards ? shards : 1) {}

  std::uint32_t shards() const noexcept { return shards_; }

  std::uint32_t shard_of(VarId x) const noexcept {
    if (shards_ == 1) return 0;
    return static_cast<std::uint32_t>(mix(x) % shards_);
  }

  /// The stable 64-bit mixer behind shard_of (splitmix64 finalizer).
  /// Exposed so the distribution/stability unit test can pin golden values.
  static std::uint64_t mix(VarId x) noexcept {
    std::uint64_t z = static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint32_t shards_ = 1;
};

/// One cross-shard dependency: "the destination site's shard `shard` must
/// cover `token` before the enveloped message may be applied".
struct ShardToken {
  std::uint32_t shard = 0;
  std::vector<std::uint8_t> token;
};

/// A decoded shard envelope: the target shard, the cross-shard dependency
/// tokens, and the reconstructed inner message.
struct ShardEnvelope {
  std::uint32_t shard = 0;
  std::vector<ShardToken> tokens;
  net::Message inner;
};

/// Wrap `inner` in a kShardEnvelope addressed to shard `shard` at the
/// destination. Channel/accounting fields are copied from the inner
/// message (see file comment).
net::Message wrap_shard_envelope(std::uint32_t shard,
                                 const std::vector<ShardToken>& tokens,
                                 const net::Message& inner);

/// Decode an envelope produced by wrap_shard_envelope. Returns nullopt on
/// a malformed body (wrong kind, truncated tokens, bad inner kind).
std::optional<ShardEnvelope> unwrap_shard_envelope(const net::Message& env);

/// Peek the inner message kind of an envelope body without decoding it
/// (for transport metric classification). Returns 0 on an empty body.
inline std::uint8_t shard_envelope_inner_kind(
    const std::vector<std::uint8_t>& body) noexcept {
  return body.empty() ? 0 : body[0];
}

// ---- multi-shard session tokens -------------------------------------------
//
// Client-visible coverage tokens for a sharded site are the framed
// concatenation of every shard's token:
//
//   [varint nshards] { [varint token_len][token bytes] }*
//
// With one shard the raw single-protocol token is used unchanged, so
// `engine-shards 1` stays byte-identical to the unsharded build.

/// Concatenate per-shard tokens into one client-visible session token.
/// `per_shard[k]` is shard k's token. Passthrough when size() == 1.
std::vector<std::uint8_t> combine_shard_tokens(
    const std::vector<std::vector<std::uint8_t>>& per_shard);

/// Split a combined token back into per-shard tokens. `shards` is the
/// expected count; nullopt on malformed input or count mismatch (callers
/// treat that like any other garbage token: not covered). Passthrough when
/// shards == 1.
std::optional<std::vector<std::vector<std::uint8_t>>> split_shard_tokens(
    const std::vector<std::uint8_t>& combined, std::uint32_t shards);

}  // namespace ccpr::causal
