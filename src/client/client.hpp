// Blocking client library for the real-network runtime.
//
// A Client is one causal session pinned to a site: it connects to that
// site's client port, speaks the framed request/response protocol of
// client_protocol.hpp, and can migrate between sites with the session's
// causal context intact (the server-side coverage_token / covered_by
// handshake — the new site is not used until it has applied everything the
// session could have observed at the old one).
//
// Resilience: every operation runs under Options::retry. Transient
// failures (connection loss, timeouts, a server answering "shutting down"
// or "unavailable") are retried with exponential backoff and jitter inside
// a per-operation deadline; with `failover` enabled the session moves to
// the next-nearest reachable site instead of hammering a dead one,
// carrying its causal past via coverage tokens the servers piggyback on
// ordinary responses. Puts are made idempotent across retries by a
// client-generated request id the server dedups, so "retry after a lost
// response" cannot double-write.
//
// Optionally records its operations into a checker::HistoryRecorder (under
// the current site's process id, matching how the in-process runtimes
// record), so a multi-process run can be machine-verified by the offline
// causal checker exactly like a simulated one. A put whose outcome is
// unknowable (the connection died after the request hit the wire and no
// retry confirmed it) is recorded via on_write_maybe so the checker stays
// sound.
//
// Errors throw client::Error (see error.hpp), which still derives from
// std::runtime_error; the Client is single-threaded by design.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "causal/replica_map.hpp"
#include "causal/types.hpp"
#include "checker/recorder.hpp"
#include "client/error.hpp"
#include "net/chaos.hpp"
#include "net/socket.hpp"
#include "server/cluster_config.hpp"
#include "store/key_space.hpp"

namespace ccpr::client {

struct ServerStatus {
  causal::SiteId site = 0;
  causal::Algorithm algorithm = causal::Algorithm::kOptTrack;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t pending_updates = 0;
  std::uint64_t peer_msgs_sent = 0;
  std::uint64_t peer_msgs_recv = 0;
  std::uint64_t peer_queued = 0;
  /// The site's region name; empty when the cluster has no geo topology.
  std::string region;
  /// Per-region peer health as seen from this site (its own region
  /// included; the site itself is not a peer so it is not counted).
  struct RegionPeers {
    std::string region;
    std::uint64_t peers = 0;      ///< peers located in this region
    std::uint64_t connected = 0;  ///< of those, with a live outbound link
  };
  std::vector<RegionPeers> region_peers;
  /// Peers this site's failure detector currently suspects (empty when
  /// everything is healthy).
  std::vector<causal::SiteId> suspected_peers;
  /// Per-engine-shard activity (one row on an unsharded site).
  struct ShardRow {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t pending_updates = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_capacity = 0;
    std::uint64_t parked_reads = 0;
    std::uint64_t covered_waiters = 0;
  };
  std::vector<ShardRow> shards;
};

/// kEngineStat: the full per-shard engine-queue counters plus the
/// cross-shard envelope-admission gauges (see sharded_engine.hpp).
struct EngineStat {
  struct Shard {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t pending_updates = 0;
    std::uint64_t queue_depth = 0;
    std::uint64_t queue_capacity = 0;
    std::uint64_t queue_peak_depth = 0;
    std::uint64_t producer_waits = 0;
    std::uint64_t parked_reads = 0;
    std::uint64_t covered_waiters = 0;
    std::uint64_t commands_total = 0;
  };
  std::vector<Shard> shards;
  /// Inbound peer envelopes currently parked on unmet cross-shard tokens.
  std::uint64_t parked_envelopes = 0;
  /// Envelopes dropped because their wrapping did not decode.
  std::uint64_t malformed_envelopes = 0;
};

class Client {
 public:
  /// Client-side resilience knobs. Attempts are bounded three ways: by
  /// count (max_attempts), by wall clock (op_deadline), and per round by
  /// the socket timeouts in Options.
  struct RetryPolicy {
    bool enabled = true;
    /// Move the session to the next-nearest site when the current one
    /// looks dead, instead of only retrying in place. Requires servers
    /// that piggyback coverage tokens (kReqWantTokens) for the causal
    /// session to survive the move.
    bool failover = false;
    std::uint32_t max_attempts = 4;
    std::chrono::milliseconds initial_backoff{20};
    std::chrono::milliseconds max_backoff{400};
    /// Hard wall-clock budget per operation; an op either succeeds or
    /// throws a typed Error within roughly this bound.
    std::chrono::milliseconds op_deadline{10000};
  };

  struct Options {
    /// Budget for establishing a connection (initial connect and migrate),
    /// retried with exponential backoff + jitter within it.
    std::chrono::milliseconds connect_timeout{5000};
    /// Per-request receive timeout (a remote fetch can be slow; 0 = none).
    std::chrono::milliseconds request_timeout{30000};
    std::uint32_t max_frame_bytes = 0;  ///< 0 = net::kDefaultMaxFrameBytes
    /// Optional client-side history recording for the offline checker.
    checker::HistoryRecorder* recorder = nullptr;
    RetryPolicy retry;
  };

  /// Connects immediately; throws client::Error on failure.
  Client(server::ClusterConfig config, causal::SiteId site, Options opts);
  Client(server::ClusterConfig config, causal::SiteId site)
      : Client(std::move(config), site, Options()) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;

  // ---- operations by variable id ----
  causal::WriteId put(causal::VarId x, std::string value);
  causal::Value get(causal::VarId x);
  /// Causally consistent multi-key snapshot; every var must be replicated
  /// at this session's site.
  std::vector<causal::Value> snapshot(const std::vector<causal::VarId>& xs);

  // ---- operations by key name (via the config's key space) ----
  causal::WriteId put_key(std::string_view key, std::string value);
  std::string get_key(std::string_view key);

  /// Move this session to another site, blocking until the new site covers
  /// this session's causal past (read-your-writes and monotonic reads
  /// survive the move). Throws on timeout; the session then still points at
  /// the old site.
  void migrate(causal::SiteId new_site,
               std::chrono::milliseconds timeout = std::chrono::seconds(30));

  /// Nearest-site selection for geo clusters: the lowest-id site in
  /// `region`, i.e. where a client physically in that region should open
  /// its session so reads stay intra-region. Throws client::Error on an
  /// unknown region, a region with no sites, or a flat cluster.
  static causal::SiteId nearest_site(const server::ClusterConfig& config,
                                     std::string_view region);

  ServerStatus status();
  /// Prometheus exposition text for the session's site (merged protocol +
  /// transport counters, engine queue depths, per-peer wire stats).
  std::string metrics_text();
  /// The site's value-store engine counters (kStoreStat): engine kind,
  /// resident footprint, probe statistics, spill activity.
  store::EngineStats store_stat();
  /// The site's per-shard protocol-engine counters (kEngineStat).
  EngineStat engine_stat();
  void ping();

  // ---- chaos administration (net/chaos.hpp over the wire) ----
  /// Install `rule` on the connected server's link toward `peer`, or
  /// toward every peer when peer == causal::kNoSite.
  void chaos_set(const net::ChaosRule& rule,
                 causal::SiteId peer = causal::kNoSite);
  /// Remove every chaos rule on the connected server.
  void chaos_clear();

  causal::SiteId site() const noexcept { return site_; }
  const store::KeySpace& keys() const noexcept { return keys_; }
  /// Resilience observability for tests: same-site retry rounds and
  /// completed site failovers performed so far by this session.
  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t failovers() const noexcept { return failovers_; }
  void close();

 private:
  net::Socket dial_site(causal::SiteId site,
                        std::chrono::milliseconds timeout);
  /// One request/response round trip on the current connection. Throws
  /// Error(kConnect) before the request is on the wire, Error(kTimeout,
  /// indeterminate) after.
  std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& req);
  /// Run one pre-encoded request under the retry policy; returns the raw
  /// ok response. `maybe_sites`, when non-null, collects the serving site
  /// of every attempt whose execution is indeterminate (puts only).
  std::vector<std::uint8_t> transact(const char* op,
                                     const std::vector<std::uint8_t>& req,
                                     std::vector<causal::SiteId>* maybe_sites);
  /// The trailing [opts] the retry layer appends to put/get/snapshot
  /// requests; 0 = append nothing (legacy format).
  std::uint8_t request_opts(bool is_put) const;
  /// Consume the response's trailing flags/tokens (present iff the request
  /// carried an opts byte), caching piggybacked coverage tokens.
  void absorb_response_tail(net::Decoder& dec, std::uint8_t opts,
                            const char* op);
  /// Try to move the session to `target` within `deadline`, replaying the
  /// cached coverage token so causality survives. Returns false (session
  /// unchanged) if the site cannot be reached or covered in time.
  bool failover_to(causal::SiteId target,
                   std::chrono::steady_clock::time_point deadline);
  /// Failover candidates from `from`, nearest first (excludes `from`).
  std::vector<causal::SiteId> failover_candidates(causal::SiteId from) const;
  /// kCovered poll loop on `s`: 1 covered, 0 deadline passed, -1 error.
  int covered_poll(net::Socket& s, const std::string& token,
                   std::chrono::steady_clock::time_point deadline);

  server::ClusterConfig config_;
  store::KeySpace keys_;
  causal::ReplicaMap rmap_;
  causal::SiteId site_;
  Options opts_;
  std::uint32_t max_frame_bytes_;
  net::Socket sock_;

  /// Session identity for server-side put dedup (random, nonzero) and the
  /// per-put request id counter.
  std::uint64_t session_id_ = 0;
  std::uint64_t next_req_id_ = 1;
  /// Freshest coverage token per remote site, piggybacked by servers on
  /// ordinary responses; the failover "luggage".
  std::unordered_map<causal::SiteId, std::string> tokens_;
  std::uint64_t retries_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t backoff_rng_ = 0;
};

}  // namespace ccpr::client
