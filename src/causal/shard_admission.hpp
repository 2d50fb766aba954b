// Cross-shard admission: every kShardEnvelope decision of a sharded site.
//
// A site with `engine-shards N` runs N protocol instances and restores
// cross-shard causal order with coverage tokens (codec: shard_map.hpp).
// This class alone decides:
//  * outbound: updates and fetch responses carry the destination's token
//    from every *other* local shard, minus empty (unpublished) ones;
//    requests are wrapped for demux only;
//  * inbound: a non-envelope, an undecodable body, a shard >= N or a
//    source site >= the site count is malformed;
//  * parking: one FIFO per (source site, shard) channel, in a flat vector
//    indexed by src * N + shard; only a channel's head is eligible.
//    Dependencies that never need checking (own shard, stale shard >= N,
//    empty token) are dropped once, at push;
//  * release: head pop, plus the parked and malformed counters.
// With N == 1 everything is a passthrough, byte-identical to no sharding.
//
// Pure and single-threaded: no locks, threads or protocol calls. Callers
// supply the tokens and the coverage checks: causal::ShardGroup (sim)
// re-checks heads synchronously; server::ShardedEngine (TCP) arms them
// with asynchronous covered-waits under its own mutex.
//
// Known gap: a token carries only obligations destined to the *message's*
// destination, so a relay site drops a dependency destined to a third site;
// `engine-shards > 1` with partial replication is not causally safe yet
// (ShardRelayTest in tests/shard_map_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "causal/shard_map.hpp"
#include "net/message.hpp"

namespace ccpr::causal {

class ShardAdmission {
 public:
  ShardAdmission(std::uint32_t shards, std::uint32_t sites);

  bool passthrough() const noexcept { return shards_ == 1; }

  /// Outbound, step 1: the tokens shard `from` attaches to `msg`. For a
  /// token-carrying kind, calls `token_of(j, msg.dst)` (returning shard j's
  /// token by value) for every other shard j in order; else calls nothing.
  template <typename TokenOf>
  std::vector<ShardToken> tokens_for(std::uint32_t from,
                                     const net::Message& msg,
                                     TokenOf&& token_of) const {
    std::vector<ShardToken> tokens;
    if (passthrough() || !carries_tokens(msg.kind)) return tokens;
    tokens.reserve(shards_ - 1);
    for (std::uint32_t j = 0; j < shards_; ++j) {
      if (j == from) continue;
      std::vector<std::uint8_t> tok = token_of(j, msg.dst);
      if (!tok.empty()) tokens.push_back(ShardToken{j, std::move(tok)});
    }
    return tokens;
  }

  /// Outbound, step 2: shard `from`'s envelope around `msg`, or `msg`
  /// itself when passthrough().
  net::Message wrap(std::uint32_t from, const std::vector<ShardToken>& tokens,
                    net::Message msg) const;

  /// Inbound: decode and validate a peer message; nullopt when malformed
  /// (the caller then counts it). Reads only immutable state, as do
  /// tokens_for and wrap, so these three need no serialization.
  std::optional<ShardEnvelope> unwrap(const net::Message& msg) const;
  void count_malformed() noexcept { ++malformed_; }

  /// Park `env` (from site `src`, validated by unwrap) at the tail of its
  /// channel, minus the never-checked tokens. Returns the channel index.
  std::size_t push(SiteId src, ShardEnvelope env);

  /// Channels, src-major then shard: 0 .. channel_count() - 1.
  std::size_t channel_count() const noexcept { return chans_.size(); }
  /// The channel's head (the only one eligible), or nullptr when empty.
  const ShardEnvelope* head(std::size_t chan) const noexcept {
    const auto& q = chans_[chan];
    return q.empty() ? nullptr : &q.front();
  }
  /// Remove and return the channel's head. Precondition: head(chan).
  ShardEnvelope pop(std::size_t chan);

  std::size_t parked() const noexcept { return parked_; }
  std::uint64_t malformed() const noexcept { return malformed_; }

 private:
  /// Whether messages of `kind` carry cross-shard dependency tokens.
  static bool carries_tokens(net::MsgKind kind) noexcept;

  std::uint32_t shards_;
  std::uint32_t sites_;
  std::vector<std::deque<ShardEnvelope>> chans_;
  std::size_t parked_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace ccpr::causal
