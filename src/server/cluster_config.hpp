// Cluster configuration for the real-network runtime: which sites exist,
// where they listen, how variables are placed on them, which algorithm
// runs, and the protocol options. One file describes the whole cluster;
// every server and client loads the same file.
//
// Text format (line-oriented, '#' comments, whitespace-separated tokens):
//
//   algorithm opt-track          # full-track|opt-track|opt-track-crp|...
//   vars 12                      # number of variables (keys)
//   replicas 2                   # replicas per variable (p)
//   placement region             # ring|hash|region (hash takes a seed:
//                                #   "placement hash 42"); default ring
//   region eu 2ms                # geo topology: declare a region; optional
//   region us 2ms                #   intra-region one-way latency (1ms)
//   link eu us 80ms              # inter-region one-way latency (50ms when
//                                #   unlisted); symmetric
//   site 0 127.0.0.1 7100 7200 eu  # id host peer-port client-port [region]
//   site 1 127.0.0.1 7101 7201 eu
//   site 2 127.0.0.1 7102 7202 us
//   place 4 0,2                  # optional per-var placement override
//   key 0 alice:wall             # optional key naming (default key<i>)
//   convergent true              # optional ProtocolOptions overrides
//   fetch-timeout-us 250000
//   no-gating true
//   sender-batch-bytes 262144    # writev coalescing limit (1 = no batching)
//   peer-queue-cap 65536         # outbound msgs/peer before send() blocks
//   engine-queue-cap 4096        # protocol commands before producers block
//   engine-shards 4              # independent engine shards per site
//                                #   (cluster-wide; 1 = classic single
//                                #   engine, byte-identical wire format)
//   catchup-interval-ms 500      # anti-entropy round period
//   catchup-timeout-ms 2000      # restart waits this long for catch-up
//   checkpoint-every 4096        # WAL records between checkpoints
//   store-engine compact         # value-store engine: map (default)|compact
//   store-shards 8               # compact engine: index shard count
//   store-inline-max 256         # compact engine: max arena-inlined value
//   store-spill-budget-bytes 67108864
//                                # compact engine: resident value budget;
//                                #   cold values spill to disk under
//                                #   --data-dir (0 = never spill)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "causal/factory.hpp"
#include "causal/replica_map.hpp"
#include "server/topology.hpp"
#include "store/key_space.hpp"

namespace ccpr::server {

struct SiteAddress {
  std::string host = "127.0.0.1";
  std::uint16_t peer_port = 0;    ///< site-to-site protocol traffic
  std::uint16_t client_port = 0;  ///< client request/response traffic
};

/// Which base placement policy maps variables onto sites (per-var `place`
/// overrides always win on top).
enum class PlacementPolicy : std::uint8_t {
  kRing = 0,    ///< x..x+p-1 (mod n), the paper's even placement
  kHash = 1,    ///< seeded pseudo-random p-subset (store::hash_placement)
  kRegion = 2,  ///< home-region round-robin (store::region_placement);
                ///< requires a topology
};

const char* placement_token(PlacementPolicy policy);

/// The config grammar's duration token — a number with a mandatory unit
/// ("80ms", "500us", "1s") parsed to microseconds — exposed for CLI flags
/// that share the grammar (e.g. `ccpr_client chaos --delay=50ms`).
bool parse_duration_token(const std::string& tok, std::uint32_t* out);

struct ClusterConfig {
  causal::Algorithm algorithm = causal::Algorithm::kOptTrack;
  std::uint32_t vars = 0;
  /// Replicas per variable (p); per-var `place` overrides win.
  std::uint32_t replicas_per_var = 1;
  PlacementPolicy placement = PlacementPolicy::kRing;
  std::uint32_t placement_seed = 0;  ///< hash placement only
  std::vector<SiteAddress> sites;
  /// Geo topology (regions, site assignment, link classes). Empty = the
  /// classic flat cluster.
  Topology topology;
  std::vector<std::pair<causal::VarId, std::vector<causal::SiteId>>>
      placement_overrides;
  std::vector<std::pair<causal::VarId, std::string>> key_names;
  causal::ProtocolOptions protocol{};
  /// I/O-path tuning; 0 means "use the runtime default" for each.
  std::uint32_t sender_batch_bytes = 0;  ///< writev coalescing limit
  std::uint32_t peer_queue_cap = 0;      ///< outbound per-peer queue cap
  std::uint32_t engine_queue_cap = 0;    ///< protocol-engine command cap
  /// Durability / anti-entropy tuning; 0 = runtime default for each.
  std::uint32_t catchup_interval_ms = 0;  ///< anti-entropy round period
  std::uint32_t catchup_timeout_ms = 0;   ///< restart catch-up gate bound
  std::uint32_t checkpoint_every = 0;     ///< WAL records per checkpoint
  /// Failure detector (TCP runtime); 0 = runtime default for each.
  /// `heartbeat-interval <duration>`: ping period per peer.
  /// `suspect-after <duration>`: floor on silence before a peer is
  /// suspected (the effective timeout also scales with the RTT EWMA).
  std::uint32_t heartbeat_interval_us = 0;
  std::uint32_t suspect_after_us = 0;

  std::uint32_t site_count() const noexcept {
    return static_cast<std::uint32_t>(sites.size());
  }

  /// Materialize the placement: the configured policy, then per-var
  /// overrides. With a topology the map also carries the site-distance
  /// matrix, so fetch routing prefers intra-region replicas.
  causal::ReplicaMap replica_map() const;
  /// Key naming: explicit `key` lines, "key<i>" for the rest.
  store::KeySpace key_space() const;

  /// Parse from config text; nullopt + *error on malformed input.
  static std::optional<ClusterConfig> parse(const std::string& text,
                                            std::string* error);
  static std::optional<ClusterConfig> load(const std::string& path,
                                           std::string* error);
  /// Serialize back to the text format (round-trips through parse()).
  std::string to_text() const;

  /// Semantic checks shared by parse() and programmatically built configs:
  /// non-empty site list, positive vars/replicas, placement overrides in
  /// range with no duplicate sites, key names in range. parse() additionally
  /// enforces dense site ids (the vector representation makes that
  /// structural here).
  bool validate(std::string* error) const;

  /// An n-site loopback cluster on consecutive ports starting at
  /// `base_port` (peer ports) and `base_port + n` (client ports); handy for
  /// tests and examples. Pass base_port 0 only if the caller fills ports in.
  static ClusterConfig loopback(std::uint32_t n, std::uint32_t q,
                                std::uint32_t p, std::uint16_t base_port);
};

}  // namespace ccpr::server
