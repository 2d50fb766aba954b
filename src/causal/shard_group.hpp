// N engine shards behind one IProtocol facade, for the simulator.
//
// ShardGroup partitions a site's keyspace over N inner protocol instances
// via the cluster-wide causal::ShardMap. Each inner protocol believes it is
// the whole site (full ReplicaMap — causal metadata is per-site, not
// per-variable); it just never sees operations on variables outside its
// shard. Every envelope decision — which messages carry which tokens, what
// is malformed, channel order — is causal::ShardAdmission's
// (shard_admission.hpp). ShardGroup adds the simulator's drive loop: tokens
// come from the inner protocols' live coverage_token, and every protocol
// entry point re-scans the parked channel heads against the inner
// covered_by until no head can be released.
//
// Durability never holds a ShardGroup: the TCP runtime shards with
// server::ShardedEngine and builds every inner protocol with
// engine_shards = 1, so the checkpoint/recovery hooks keep IProtocol's
// defaults here.
//
// Single-writer contract: ShardGroup is one protocol instance to its
// runtime, so all entry points are already serialized; the inner instances
// then run strictly within those calls. Calling inner j's coverage_token
// from inside inner k's send hook is legal — the re-entrancy guard is
// per-instance, and j != k always holds there.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "causal/protocol.hpp"
#include "causal/shard_admission.hpp"
#include "causal/shard_map.hpp"

namespace ccpr::causal {

class ShardGroup final : public IProtocol {
 public:
  /// Builds the inner protocol instance for shard `k`, bound to `svc`. The
  /// index lets the builder give each shard private disk paths (spill
  /// directories) when the store engine needs them.
  using ProtocolBuilder =
      std::function<std::unique_ptr<IProtocol>(std::uint32_t k, Services svc)>;

  ShardGroup(std::uint32_t shards, std::uint32_t sites, Services svc,
             const ProtocolBuilder& builder);

  // ---- IProtocol ----
  void write(VarId x, std::string data) override;
  void read(VarId x, ReadContinuation k) override;
  void on_message(const net::Message& msg) override;
  WriteId last_write_id() const override;
  const Value& peek(VarId x) const override;
  std::vector<std::uint8_t> coverage_token(SiteId target) override;
  bool covered_by(const std::vector<std::uint8_t>& token) override;
  store::EngineStats store_stats() const override;
  std::size_t pending_update_count() const override;
  std::uint64_t log_entry_count() const override;
  std::uint64_t meta_state_bytes() const override;
  Algorithm algorithm() const override;

  const ShardMap& shard_map() const noexcept { return map_; }
  std::uint32_t shards() const noexcept { return map_.shards(); }
  IProtocol& shard(std::uint32_t k) { return *inner_[k]; }

  /// Envelopes currently parked on unmet cross-shard tokens (all channels).
  std::size_t parked_envelope_count() const noexcept {
    return admission_.parked();
  }
  /// Inbound messages dropped as malformed.
  std::uint64_t malformed_envelopes() const noexcept {
    return admission_.malformed();
  }

 private:
  void group_send(std::uint32_t from_shard, net::Message m);
  /// Deliver every channel head whose tokens are covered; loops to a
  /// fixpoint since each delivery can cover further tokens.
  void rescan_parked();

  ShardMap map_;
  ShardAdmission admission_;
  Services outer_;
  std::vector<std::unique_ptr<IProtocol>> inner_;
  std::uint32_t last_write_shard_ = 0;
  bool has_local_write_ = false;
  bool rescanning_ = false;
};

}  // namespace ccpr::causal
