// ShardedEngine: N ProtocolEngine shards behind one site-server facade.
//
// The TCP runtime's counterpart to causal::ShardGroup. Each shard is a full
// single-writer ProtocolEngine — its own apply thread, bounded MPSC queue,
// durability layer (WAL under <data-dir>/shard-<k> for k > 0) and value
// store — running an unmodified single-shard protocol over the cluster-wide
// causal::ShardMap partition of the keyspace. With shards == 1 everything
// here is a strict passthrough and the site behaves byte-identically to the
// pre-sharding server.
//
// Cross-shard causal order (shards > 1):
//
//  * Outbound: every protocol message leaves through wrap(): shard k's
//    update / fetch-response gets the *other* local shards' coverage tokens
//    for the destination attached inside a kShardEnvelope. Tokens come from
//    a per-shard cache refreshed by each shard's batch-end hook — published
//    BEFORE that batch's client callbacks fire, so the cache provably
//    covers anything any session has observed (publish-before-fulfill; see
//    protocol_engine.hpp). Reading the cache is a mutex-protected lookup:
//    shard k never blocks on shard j's apply thread.
//
//  * Inbound: deliver() unwraps envelopes into per-(source site, shard)
//    FIFO channels. The head envelope's tokens are posted to the target
//    shards as deadline-less covered-waiters; when the last one reports
//    covered, the head is released into its shard's queue and the next head
//    is armed. Later envelopes wait behind the head, preserving exactly the
//    per-channel order an unsharded site gets from its single queue.
//    Cross-shard waits are acyclic in the happens-before order the senders
//    serialized, so parked envelopes always drain (no timeout needed); the
//    parked count is exported for observability.
//
// Client-visible session state: coverage tokens become the framed
// concatenation of every shard's token (causal::combine_shard_tokens), and
// covered-waits split the token and wait on every shard. Multi-key
// snapshots degrade from "one apply slot" to a sequence of per-shard
// consistent cuts issued in shard order — still a causally consistent read
// sequence, no longer a single atomic cut (documented in RUNTIMES.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "causal/shard_map.hpp"
#include "metrics/metrics.hpp"
#include "server/protocol_engine.hpp"

namespace ccpr::server {

class ShardedEngine {
 public:
  /// One report per shard plus their merge. `site.pending_updates` also
  /// counts the envelopes parked on cross-shard tokens; the shard rows do
  /// not.
  struct Report {
    ProtocolEngine::Report site;
    std::vector<ProtocolEngine::Report> shards;
  };
  using ReportCb = std::function<void(std::optional<Report>)>;

  ShardedEngine(std::uint32_t shards, causal::SiteId self,
                std::uint32_t n_sites, ProtocolEngine::Options engine_opts);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shards() const noexcept { return map_.shards(); }
  const causal::ShardMap& shard_map() const noexcept { return map_; }
  /// The shard engines, for per-shard wiring (adopt_protocol,
  /// configure_durability, Services targets). Index < shards().
  ProtocolEngine& shard(std::uint32_t k) { return *engines_[k]; }
  /// The metrics sink shard k's protocol Services must point at.
  metrics::Metrics* shard_metrics(std::uint32_t k) {
    return metrics_[k].get();
  }

  /// Where wrapped outbound traffic goes (the real transport). Must be set
  /// before any shard starts.
  void set_transport_send(std::function<void(net::Message)> send);

  /// Attach shard k's current cross-shard coverage tokens (kUpdate /
  /// kFetchResp only) and wrap in a kShardEnvelope. Identity when
  /// shards == 1. Installed as each shard Durability's wrap_update hook so
  /// stamped updates are wrapped *before* retention and catch-up resends
  /// replay the original-send tokens verbatim — fresh tokens at resend
  /// time could reference writes parked behind the resent update at the
  /// receiver, a cross-shard deadlock.
  net::Message wrap(std::uint32_t shard, net::Message msg);

  /// Shard k's durability transport_send target: wraps fresh protocol
  /// sends via wrap() and forwards to the transport. Already-wrapped
  /// messages (retained catch-up resends) pass through verbatim.
  /// Passthrough when shards == 1. Runs on shard k's apply thread.
  void wrap_and_send(std::uint32_t shard, net::Message msg);

  /// Refresh the token cache from shard k's protocol. Installed as each
  /// shard's batch-end hook; also called synchronously after recovery,
  /// before the apply threads start, so restored state is published first.
  void publish_tokens(std::uint32_t shard, causal::IProtocol& proto);

  /// Arm every shard's batch-end hook (only meaningful when shards > 1;
  /// no-op otherwise so the single-shard hot path stays hook-free). Call
  /// before start_all().
  void install_hooks();

  void start_all();
  void stop_all();

  /// Inbound peer protocol traffic from the site's transport (everything
  /// except heartbeats, which the server answers before this layer).
  void deliver(net::Message msg);

  // ---- client-facing async API (reactor threads / engine callbacks) ----

  void async_write(causal::VarId x, std::string data, bool local_replica,
                   ProtocolEngine::WriteCb cb);
  void async_read(causal::VarId x, ProtocolEngine::ReadCb cb);
  /// Sequential per-shard consistent cuts, assembled back into `xs` order.
  void async_snapshot(std::vector<causal::VarId> xs,
                      ProtocolEngine::SnapshotCb cb);
  /// Combined (all-shards) session token for `target`.
  void async_token(causal::SiteId target, ProtocolEngine::TokenCb cb);
  /// Split `token` and wait for every shard, same deadline; AND of the
  /// verdicts. A token that does not split for this shard count is garbage:
  /// verdict false, like any undecodable token today.
  void async_covered(std::vector<std::uint8_t> token, std::uint64_t wait_us,
                     ProtocolEngine::CoveredCb cb);

  /// Fan ProtocolEngine::async_report out to every shard; cb fires once,
  /// on the thread of the last shard to answer, with nullopt if any shard
  /// did. Same threading rule: never call it from an apply thread.
  void async_report(ReportCb cb);

  std::vector<ProtocolEngine::QueueStats> queue_stats() const;
  /// Envelopes parked on unmet cross-shard tokens right now.
  std::uint64_t parked_envelopes() const noexcept {
    return parked_envelopes_.load(std::memory_order_relaxed);
  }
  std::uint64_t malformed_envelopes() const noexcept {
    return malformed_envelopes_.load(std::memory_order_relaxed);
  }

 private:
  /// One inbound per-(src, shard) FIFO. Invariant: armed_ == !q.empty()
  /// outside adm_mu_ critical sections.
  struct Chan {
    std::deque<causal::ShardEnvelope> q;
    bool armed = false;
  };
  /// Countdown for one armed head's token set.
  struct Gate {
    std::atomic<std::uint32_t> remaining{0};
    std::uint64_t chan_key = 0;
  };

  static std::uint64_t chan_key(causal::SiteId src, std::uint32_t shard) {
    return (static_cast<std::uint64_t>(src) << 32) | shard;
  }
  /// Arm (or immediately drain) the head of `key`'s channel. `bounded`
  /// selects blocking vs non-blocking enqueues for the covered-waiter
  /// posts and the release apply — false whenever the caller may be an
  /// apply thread.
  void arm_or_drain(std::uint64_t key, bool bounded);
  void on_gate_open(std::uint64_t key);

  causal::ShardMap map_;
  causal::SiteId self_;
  std::uint32_t n_sites_;
  std::vector<std::unique_ptr<ProtocolEngine>> engines_;
  std::vector<std::unique_ptr<metrics::Metrics>> metrics_;
  std::function<void(net::Message)> transport_send_;

  /// token_cache_[k][dst] = shard k's last published coverage token for
  /// site dst. Guarded by token_mu_; writers are batch-end hooks, readers
  /// are wrap_and_send calls on other shards' apply threads.
  mutable std::mutex token_mu_;
  std::vector<std::vector<std::vector<std::uint8_t>>> token_cache_;

  mutable std::mutex adm_mu_;
  std::unordered_map<std::uint64_t, Chan> chans_;
  std::atomic<std::uint64_t> parked_envelopes_{0};
  std::atomic<std::uint64_t> malformed_envelopes_{0};
};

}  // namespace ccpr::server
