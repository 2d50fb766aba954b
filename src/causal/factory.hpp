// Construction of protocol instances by Algorithm tag.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "causal/protocol.hpp"
#include "causal/replica_map.hpp"

namespace ccpr::causal {

/// Algorithm-independent superset of per-protocol options; each protocol
/// picks out the flags it understands.
struct ProtocolOptions {
  /// Gate RemoteFetch responses on the reader's causal past (protocols with
  /// non-local reads only; see DESIGN.md §6).
  bool fetch_gating = true;
  /// Opt-Track pruning ablation switches.
  bool prune_cond1 = true;
  bool prune_cond2 = true;
  /// Opt-Track §III-B distributed-write-processing optimization.
  bool distribute_write = false;
  /// Opt-Track: use the paper's (unsound) Algorithm 3 MERGE verbatim.
  bool aggressive_merge = false;
  /// Causal+ (paper §V): converge replicas via a deterministic LWW rule at
  /// apply time. Works with every algorithm.
  bool convergent = false;
  /// §V availability: RemoteFetch timeout before contacting a secondary
  /// replica (microseconds of virtual time; 0 disables).
  sim::SimTime fetch_timeout_us = 0;
  /// Which value-store engine backs the local variable store, plus its
  /// tuning (shards, inline threshold, cold-value spill). Defaults to the
  /// reference MapEngine.
  store::EngineOptions store_engine{};
  /// Partition the site's keyspace over this many independent engine
  /// shards (causal::ShardGroup; cluster-wide — every site must agree).
  /// 1 = unsharded: no envelopes, the same wire traffic as a site without
  /// the option. The TCP runtime implements sharding in
  /// server::ShardedEngine instead and always builds single-shard protocols.
  std::uint32_t engine_shards = 1;
  /// Carve the per-writer WriteId sequence space: the protocol issues seqs
  /// offset+1, offset+1+stride, offset+1+2*stride, ... Shard k of N uses
  /// (k, N) so the shards of one site never collide on (writer, seq) — the
  /// checker treats WriteIds as globally unique identities. The defaults
  /// are the dense unsharded space 1, 2, 3, ...
  std::uint64_t write_seq_offset = 0;
  std::uint64_t write_seq_stride = 1;
};

/// Shard k of an n-shard site: a single-shard instance issuing WriteIds
/// from shard k's slice of the seq space, with a private `/shard-<k>` spill
/// directory for k > 0. Used by ShardGroup and the TCP runtime alike.
ProtocolOptions shard_protocol_options(ProtocolOptions opts, std::uint32_t k,
                                       std::uint32_t n);

std::unique_ptr<IProtocol> make_protocol(Algorithm alg, SiteId self,
                                         const ReplicaMap& rmap, Services svc,
                                         const ProtocolOptions& opts = {});

/// CLI/config token for an algorithm ("opt-track", "full-track", ...), the
/// inverse of algorithm_from_token. Distinct from algorithm_name(), which
/// is the display name.
const char* algorithm_token(Algorithm a) noexcept;

/// Parse a CLI/config token; nullopt if unknown. Shared by the experiment
/// tools and the cluster-config loader so they cannot drift.
std::optional<Algorithm> algorithm_from_token(std::string_view token);

}  // namespace ccpr::causal
