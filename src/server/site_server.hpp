// SiteServer: the daemon hosting one site of a real-network cluster.
//
// It wires together the TCP runtime: a TcpTransport toward the peer
// sites, `engine-shards` protocol state machines behind a ShardedEngine
// facade, a timer thread for RemoteFetch failover, and an epoll Reactor
// serving the framed request/response protocol of client_protocol.hpp.
//
// Threading model (docs/RUNTIMES.md has the full picture): each protocol
// instance is owned exclusively by its shard's apply thread. Reactor loop
// threads, the transport delivery thread and the timer thread never touch
// a protocol — they enqueue commands on the shard engines' queues. Every
// client op runs asynchronously: the reactor hands the decoded frame to
// handle_client_frame on a loop thread, the engine callback builds the
// response on an apply thread and posts it back to the owning loop. The
// admin ops (status/metrics/store-stat/engine-stat) are answered from one
// ShardedEngine::async_report the same way. There is no mutex around any
// protocol anywhere in this file.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "causal/factory.hpp"
#include "metrics/metrics.hpp"
#include "net/chaos.hpp"
#include "net/reactor.hpp"
#include "net/tcp_transport.hpp"
#include "server/client_protocol.hpp"
#include "server/cluster_config.hpp"
#include "server/metrics_text.hpp"
#include "server/sharded_engine.hpp"
#include "util/timer_thread.hpp"

namespace ccpr::server {

class SiteServer : net::IMessageSink {
 public:
  /// Per-process (not cluster-wide) durability knobs, set from the command
  /// line. The catch-up machinery itself is always on; an empty data_dir
  /// just means nothing survives a restart of *this* process.
  struct Options {
    /// Directory for this site's write-ahead log; empty = no persistence.
    /// Shard 0 logs here directly, shard k > 0 under <data_dir>/shard-<k>.
    /// Also hosts the compact engine's spill segment (in a per-site
    /// subdirectory); with no data dir the spill budget is forced to 0.
    std::string data_dir;
    Wal::Sync wal_sync = Wal::Sync::kAlways;
    /// Command-line override of the cluster config's `store-engine` line
    /// (--store-engine); unset = use the config.
    std::optional<store::EngineKind> store_engine;
    /// Command-line override of the config's `engine-shards`; unset = use
    /// the config. Every site must agree (the map is cluster-wide).
    std::optional<std::uint32_t> engine_shards;
  };

  SiteServer(ClusterConfig config, causal::SiteId self);
  SiteServer(ClusterConfig config, causal::SiteId self, Options opts);
  ~SiteServer() override;

  SiteServer(const SiteServer&) = delete;
  SiteServer& operator=(const SiteServer&) = delete;

  /// Bind both listen ports and start serving. Returns false (with the
  /// server stopped) if either port cannot be bound.
  bool start();
  /// Graceful shutdown: stop accepting, abort in-flight client requests,
  /// flush outbound peer queues briefly, tear the transport down.
  void stop();

  causal::SiteId self() const noexcept { return self_; }
  /// Actual bound ports (useful when the config used port 0).
  std::uint16_t peer_port() const noexcept { return transport_->listen_port(); }
  std::uint16_t client_port() const noexcept { return client_port_; }

  const ClusterConfig& config() const noexcept { return config_; }
  const causal::ReplicaMap& replica_map() const noexcept { return rmap_; }
  std::uint32_t engine_shards() const noexcept { return engine_->shards(); }

  /// Site metrics: protocol counters merged with the transport counters.
  /// Blocks on a report from every shard (see util::block_on), so never
  /// call it from an apply or reactor thread. Readable after stop().
  metrics::Metrics metrics() const;
  /// Shard-aggregated queue stats (historic single-engine shape).
  ProtocolEngine::QueueStats engine_stats() const;
  /// One QueueStats per shard.
  std::vector<ProtocolEngine::QueueStats> engine_shard_stats() const {
    return engine_->queue_stats();
  }
  std::vector<net::TcpTransport::PeerStats> peer_stats() const {
    return transport_->peer_stats();
  }

  /// Chaos injection on this site's transport links (also reachable over
  /// the wire via the kChaos admin op).
  void set_chaos(causal::SiteId peer, const net::ChaosRule& rule) {
    transport_->set_chaos(peer, rule);
  }
  void clear_chaos() { transport_->clear_chaos(); }

  /// Failure-detector verdict for one peer (lock-free; also fed to the
  /// protocol's fetch-target ranking via Services::peer_suspected).
  bool peer_suspected(causal::SiteId peer) const {
    return peer < health_.size() &&
           health_[peer].suspected.load(std::memory_order_relaxed);
  }
  /// Snapshot of the per-peer heartbeat state for metrics/status.
  HealthStats health_stats() const;

 private:
  /// Per-peer failure-detector state. All fields are atomics so the tick
  /// (timer thread), ack handling (delivery thread), suspicion queries
  /// (apply thread via Services::peer_suspected) and scrapes (client
  /// threads) need no lock.
  struct PeerHealth {
    std::atomic<std::uint64_t> last_ack_us{0};  ///< steady us; 0 = never
    std::atomic<std::uint64_t> rtt_ewma_us{0};
    std::atomic<bool> suspected{false};
    std::atomic<std::uint64_t> suspect_events{0};
    std::atomic<std::uint64_t> heartbeats_sent{0};
    std::atomic<std::uint64_t> acks_received{0};
  };

  void deliver(net::Message msg) override;
  /// start() failure path once the engine/transport/timer layers are up:
  /// tear them back down in reverse order.
  void stop_core();
  /// Blocking report for the catch-up gate and metrics().
  std::optional<ShardedEngine::Report> report_now() const;
  /// The Prometheus exposition the kMetrics client op serves.
  std::string metrics_text(const ShardedEngine::Report& r) const;
  /// Self-rescheduling periodic anti-entropy round on the timer thread.
  void schedule_catchup_tick();
  /// Self-rescheduling heartbeat round: ping every peer, re-evaluate
  /// suspicion from ack ages. Runs on the timer thread.
  void schedule_heartbeat_tick();
  void heartbeat_tick();

  /// Reactor request handler (loop thread): decode the op and kick off
  /// the async engine work.
  void handle_client_frame(const net::Reactor::ConnRef& ref,
                           std::vector<std::uint8_t> body);
  void send_status(const net::Reactor::ConnRef& ref, ClientStatus st);
  /// Answer an admin op from one engine report: kOk plus whatever `encode`
  /// appends, or kShuttingDown if the engines are stopping.
  void reply_with_report(
      const net::Reactor::ConnRef& ref,
      std::function<void(const ShardedEngine::Report&, net::Encoder&)> encode);
  /// Append the response flags byte and, when requested, per-target
  /// coverage tokens (gathered asynchronously), then send. Takes ownership
  /// of the partially built response body.
  void finish_with_tokens(net::Reactor::ConnRef ref,
                          std::vector<std::uint8_t> partial, bool want_tokens,
                          bool dup_replay);

  ClusterConfig config_;
  causal::SiteId self_;
  Options opts_;
  causal::ReplicaMap rmap_;

  metrics::Metrics transport_metrics_;
  std::unique_ptr<net::TcpTransport> transport_;
  util::TimerThread timers_;

  /// Exclusive owner of the shard protocols and their metrics sinks.
  std::unique_ptr<ShardedEngine> engine_;
  /// Raw observers of the adopted protocols, used only in the
  /// single-threaded recovery phase of start() (post-recover token
  /// publish). Never dereferenced while apply threads run.
  std::vector<causal::IProtocol*> shard_protos_;

  std::uint16_t client_port_ = 0;
  std::unique_ptr<net::Reactor> reactor_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;

  // ---- failure detector ----
  std::vector<PeerHealth> health_;  // indexed by site id; self unused
  std::uint64_t hb_interval_us_ = 0;
  std::uint64_t suspect_floor_us_ = 0;
  std::atomic<std::uint64_t> hb_epoch_us_{0};  ///< detector start time
  std::atomic<std::uint64_t> reads_fast_failed_{0};

  // ---- idempotent put dedup ----
  // Last request id and result per client session, so a put retried after
  // a lost response replays the stored result instead of re-executing.
  // Bounded: at the cap an arbitrary idle session is evicted (a client
  // retries within seconds; eviction only risks re-execution for sessions
  // that went silent long ago). Touched from reactor loop threads (lookup)
  // and apply threads (store), hence the mutex.
  struct PutDedup {
    std::uint64_t req_id = 0;
    ProtocolEngine::WriteResult result;
  };
  std::mutex dedup_mu_;
  std::unordered_map<std::uint64_t, PutDedup> put_dedup_;
  static constexpr std::size_t kDedupSessionCap = 4096;
  /// Epoll event loops serving the client port.
  static constexpr std::uint32_t kClientIoThreads = 2;
};

}  // namespace ccpr::server
