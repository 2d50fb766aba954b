// N engine shards behind one IProtocol facade, for the simulator.
//
// ShardGroup partitions a site's keyspace over N inner protocol instances
// via the cluster-wide causal::ShardMap. Each inner protocol believes it is
// the whole site (full ReplicaMap — causal metadata is per-site, not
// per-variable, so the partition is safe); it just never sees operations on
// variables outside its shard. Cross-shard causal order is restored on the
// wire: every outbound protocol message is wrapped in a kShardEnvelope
// carrying, for each *other* local shard, that shard's coverage token for
// the destination site. The receiving ShardGroup parks an envelope until
// its own shards cover the attached tokens, preserving per-(src, shard)
// FIFO order while parked.
//
// With shards == 1 the group is a strict passthrough: no envelopes, no
// token calls, byte-identical wire traffic to an unsharded site.
//
// Single-writer contract: ShardGroup is one protocol instance to its
// runtime, so all entry points are already serialized; the inner instances
// then run strictly within those calls. Calling inner j's coverage_token
// from inside inner k's send hook is legal — the re-entrancy guard is
// per-instance, and j != k always holds there.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "causal/protocol.hpp"
#include "causal/shard_map.hpp"

namespace ccpr::causal {

class ShardGroup final : public IProtocol {
 public:
  /// Builds the inner protocol instance for shard `k`, bound to `svc`. The
  /// index lets the builder give each shard private disk paths (spill
  /// directories) when the store engine needs them.
  using ProtocolBuilder =
      std::function<std::unique_ptr<IProtocol>(std::uint32_t k, Services svc)>;

  ShardGroup(std::uint32_t shards, SiteId self, Services svc,
             const ProtocolBuilder& builder);

  // ---- IProtocol ----
  void write(VarId x, std::string data) override;
  void read(VarId x, ReadContinuation k) override;
  void on_message(const net::Message& msg) override;
  WriteId last_write_id() const override;
  const Value& peek(VarId x) const override;
  std::vector<std::uint8_t> coverage_token(SiteId target) override;
  bool covered_by(const std::vector<std::uint8_t>& token) override;
  void serialize_state(net::Encoder& enc) const override;
  bool restore_state(net::Decoder& dec) override;
  void replay_meta_merge(VarId x, SiteId responder, const std::uint8_t* data,
                         std::size_t len) override;
  void merge_all_local_meta() override;
  void on_durable_checkpoint(std::uint64_t gen) override;
  store::EngineStats store_stats() const override;
  std::size_t pending_update_count() const override;
  std::uint64_t log_entry_count() const override;
  std::uint64_t meta_state_bytes() const override;
  Algorithm algorithm() const override;

  const ShardMap& shard_map() const noexcept { return map_; }
  std::uint32_t shards() const noexcept { return map_.shards(); }
  IProtocol& shard(std::uint32_t k) { return *inner_[k]; }

  /// Envelopes currently parked on unmet cross-shard tokens (all channels).
  std::size_t parked_envelope_count() const noexcept { return parked_total_; }
  /// Envelopes dropped because their body failed to decode.
  std::uint64_t malformed_envelopes() const noexcept { return malformed_; }

 private:
  void group_send(std::uint32_t from_shard, net::Message m);
  bool head_ready(const ShardEnvelope& env);
  /// Deliver every channel head whose tokens are covered; loops to a
  /// fixpoint since each delivery can cover further tokens.
  void rescan_parked();

  ShardMap map_;
  SiteId self_;
  Services outer_;
  std::vector<std::unique_ptr<IProtocol>> inner_;
  std::uint32_t last_write_shard_ = 0;
  bool has_local_write_ = false;

  // Per-(src site, shard) FIFO of parked envelopes. Only the head of each
  // channel is eligible; later entries wait behind it to preserve channel
  // order. std::map keeps rescan order deterministic for the simulator.
  std::map<std::pair<SiteId, std::uint32_t>, std::deque<ShardEnvelope>>
      parked_;
  std::size_t parked_total_ = 0;
  std::uint64_t malformed_ = 0;
  bool rescanning_ = false;
};

}  // namespace ccpr::causal
