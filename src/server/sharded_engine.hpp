// ShardedEngine: N ProtocolEngine shards behind one site-server facade.
//
// The TCP runtime's sharding layer. Each shard is a full single-writer
// ProtocolEngine — its own apply thread, bounded queue, durability layer
// (WAL under <data-dir>/shard-<k> for k > 0) and value store — running a
// single-shard protocol over the cluster-wide causal::ShardMap. Every
// envelope decision is causal::ShardAdmission's (shard_admission.hpp); with
// one shard everything here is a passthrough. This layer adds:
//
//  * a token cache: each shard's batch-end hook publishes its coverage
//    tokens BEFORE that batch's client callbacks fire, so the cache covers
//    anything a session has observed (publish-before-fulfill; see
//    protocol_engine.hpp), and wrap() never blocks on another apply thread;
//  * asynchronous gates: a channel head's tokens become deadline-less
//    covered-waiters on the target shards, and the last verdict releases
//    the head into its shard's queue and arms the next one. Cross-shard
//    waits are acyclic in the senders' happens-before order, so parked
//    envelopes always drain;
//  * the client API fanned out over shards: session tokens are the framed
//    concatenation of every shard's token, and multi-key snapshots are a
//    sequence of per-shard consistent cuts in shard order (a causally
//    consistent read sequence, no longer one atomic cut; see RUNTIMES.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "causal/shard_admission.hpp"
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

  /// Shard k's envelope around `msg`, with tokens from the cache (identity
  /// when shards == 1). Installed as each shard Durability's wrap_update
  /// hook so stamped updates are wrapped *before* retention and catch-up
  /// resends replay the original-send tokens verbatim — fresh tokens at
  /// resend time could reference writes parked behind the resent update at
  /// the receiver, a cross-shard deadlock.
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
  std::uint64_t parked_envelopes() const;
  std::uint64_t malformed_envelopes() const;

 private:
  /// Countdown for one armed head's token set.
  struct Gate {
    std::atomic<std::uint32_t> remaining{0};
    std::size_t chan = 0;
  };

  /// Arm (or immediately drain) the head of channel `chan`. `bounded`
  /// selects blocking vs non-blocking enqueues for the covered-waiter
  /// posts and the release apply — false whenever the caller may be an
  /// apply thread.
  void arm_or_drain(std::size_t chan, bool bounded);
  void on_gate_open(std::size_t chan);

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

  /// Channels, counters and armed_ are guarded by adm_mu_. The admission's
  /// const calls (tokens_for, wrap, unwrap) read only its immutable shape
  /// and run unlocked.
  mutable std::mutex adm_mu_;
  causal::ShardAdmission admission_;
  /// armed_[chan]: a drive loop owns the channel's head (an armed gate or
  /// a drain in progress); cleared only when that loop finds it empty.
  std::vector<bool> armed_;
};

}  // namespace ccpr::server
