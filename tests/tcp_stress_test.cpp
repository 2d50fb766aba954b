// Stress test for the single-writer engine and the batched TCP path: three
// in-process SiteServers (so TSan can observe every thread), hammered by
// many parallel client sessions doing mixed put/get/snapshot plus the
// occasional migration, while three *recorded* sessions run a causal
// workload whose history the offline checker verifies afterwards.
//
// Variable split keeps the recorded history closed: recorded sessions touch
// vars [0, krecordedVars) only, hammer sessions touch the rest, so recorded
// reads can never observe a write the recorder did not log.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "server/cluster_config.hpp"
#include "server/site_server.hpp"
#include "tcp_test_support.hpp"
#include "util/rng.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;

constexpr std::uint32_t kSites = 3;
constexpr std::uint32_t kVars = 12;
constexpr causal::VarId kRecordedVars = 6;  // [0,6) recorded, [6,12) hammer

using testing::LocalCluster;
using testing::loopback_config;

server::ClusterConfig stress_config() {
  auto cfg = loopback_config(kSites, kVars, 2);
  cfg.algorithm = causal::Algorithm::kOptTrack;
  cfg.protocol.fetch_timeout_us = 500'000;
  // Small enough to actually exercise engine backpressure under the
  // hammer, large enough not to throttle the run into serial.
  cfg.engine_queue_cap = 128;
  cfg.peer_queue_cap = 4096;
  return cfg;
}

/// Vars within [lo, hi) replicated at `site` — legal snapshot sets.
std::vector<causal::VarId> local_vars(const causal::ReplicaMap& rmap,
                                      causal::SiteId site, causal::VarId lo,
                                      causal::VarId hi) {
  std::vector<causal::VarId> out;
  for (causal::VarId x = lo; x < hi; ++x) {
    if (rmap.replicated_at(x, site)) out.push_back(x);
  }
  return out;
}

/// Recorded causal session: mixed put/get/snapshot on the recorded var
/// range, one session per site so per-process histories stay sequential.
void recorded_session(const server::ClusterConfig& cfg,
                      const causal::ReplicaMap& rmap, causal::SiteId site,
                      checker::HistoryRecorder* rec, std::uint64_t seed,
                      std::size_t ops) {
  client::Client::Options copts;
  copts.recorder = rec;
  client::Client cli(cfg, site, copts);
  util::Rng rng(seed);
  const auto snap_vars = local_vars(rmap, site, 0, kRecordedVars);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto x = static_cast<causal::VarId>(rng.below(kRecordedVars));
    const double dice = rng.uniform01();
    if (dice < 0.4) {
      cli.put(x, "s" + std::to_string(site) + "-" + std::to_string(i));
    } else if (dice < 0.9 || snap_vars.empty()) {
      (void)cli.get(x);
    } else {
      (void)cli.snapshot(snap_vars);
    }
  }
}

/// Unrecorded hammer session: put/get/snapshot on the hammer var range,
/// with an occasional migration to the next site.
void hammer_session(const server::ClusterConfig& cfg,
                    const causal::ReplicaMap& rmap, causal::SiteId start,
                    std::uint64_t seed, std::size_t ops,
                    std::atomic<std::uint64_t>* completed) {
  client::Client cli(cfg, start);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto x = static_cast<causal::VarId>(
        kRecordedVars + rng.below(kVars - kRecordedVars));
    const double dice = rng.uniform01();
    if (dice < 0.35) {
      cli.put(x, std::string(32, 'h'));
    } else if (dice < 0.85) {
      (void)cli.get(x);
    } else if (dice < 0.97) {
      const auto snap =
          local_vars(rmap, cli.site(), kRecordedVars, kVars);
      if (!snap.empty()) (void)cli.snapshot(snap);
    } else {
      cli.migrate((cli.site() + 1) % kSites);
    }
    completed->fetch_add(1, std::memory_order_relaxed);
  }
}

/// Parameterized over the engine-shard count: 1 = the historic single
/// protocol instance, 4 = sharded engines with cross-shard coverage-token
/// envelopes. The causal checker must pass identically for both.
class TcpStressTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TcpStressTest, ParallelClientsSurviveCausalCheck) {
  auto cfg = stress_config();
  cfg.protocol.engine_shards = GetParam();
  const auto rmap = cfg.replica_map();

  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());

  checker::HistoryRecorder recorder;
  std::atomic<std::uint64_t> hammer_ops{0};
  constexpr std::size_t kHammerPerSite = 2;
  constexpr std::size_t kHammerOps = 60;
  constexpr std::size_t kRecordedOps = 50;

  {
    std::vector<std::thread> threads;
    for (causal::SiteId s = 0; s < kSites; ++s) {
      threads.emplace_back([&, s] {
        recorded_session(cfg, rmap, s, &recorder, 1000 + s, kRecordedOps);
      });
      for (std::size_t h = 0; h < kHammerPerSite; ++h) {
        threads.emplace_back([&, s, h] {
          hammer_session(cfg, rmap, s, 2000 + s * 10 + h, kHammerOps,
                         &hammer_ops);
        });
      }
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(hammer_ops.load(), kSites * kHammerPerSite * kHammerOps);

  // The engine actually carried the load, and the metrics endpoint reports
  // it: every site must show engine commands and the configured caps
  // (engine_stats aggregates across shards, so capacity scales with the
  // shard count).
  const std::uint32_t shards = GetParam();
  for (causal::SiteId s = 0; s < kSites; ++s) {
    ASSERT_EQ(cluster.servers[s]->engine_shards(), shards);
    const auto qs = cluster.servers[s]->engine_stats();
    EXPECT_GT(qs.enqueued_total(), 0u) << "site " << s;
    EXPECT_EQ(qs.capacity, cfg.engine_queue_cap * shards) << "site " << s;
    const auto per_shard = cluster.servers[s]->engine_shard_stats();
    EXPECT_EQ(per_shard.size(), shards) << "site " << s;
    for (const auto& ps : cluster.servers[s]->peer_stats()) {
      EXPECT_EQ(ps.queue_cap, cfg.peer_queue_cap);
    }
  }
  {
    client::Client probe(cfg, 0);
    const std::string text = probe.metrics_text();
    EXPECT_NE(text.find("ccpr_engine_queue_depth"), std::string::npos);
    EXPECT_NE(text.find("ccpr_engine_commands_total"), std::string::npos);
    EXPECT_NE(text.find("ccpr_writes_total"), std::string::npos);
    EXPECT_NE(text.find("ccpr_peer_batches_sent_total"), std::string::npos);
    EXPECT_NE(text.find("ccpr_engine_shards"), std::string::npos);
    if (shards > 1) {
      EXPECT_NE(text.find("shard=\"0\""), std::string::npos);
      EXPECT_NE(text.find("ccpr_shard_parked_envelopes"), std::string::npos);
    }
    // Per-shard engine counters over the wire.
    const auto es = probe.engine_stat();
    EXPECT_EQ(es.shards.size(), shards);
    std::uint64_t commands = 0;
    for (const auto& row : es.shards) commands += row.commands_total;
    EXPECT_GT(commands, 0u);
    const auto st = probe.status();
    EXPECT_EQ(st.shards.size(), shards);
  }

  cluster.stop();

  // Recorded sessions were one per site on a var range the hammer never
  // touched, so their read-from edges all resolve within the recording.
  // Applies were not recorded; delivery completeness is out of scope.
  checker::CheckOptions opts;
  opts.require_complete_delivery = false;
  const auto result =
      checker::check_causal_consistency(recorder, rmap, opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
  EXPECT_GT(result.ops_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(EngineShards, TcpStressTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "shards" +
                                  std::to_string(param_info.param);
                         });

// A sharded site answers kStatus from one report taken across all shards,
// so its site totals equal the sum of its shard rows even while writes
// land concurrently. SiteServer::metrics() reads the same report after
// stop() and must still count every write the site served.
TEST(TcpStressTest, ShardedReportsAgreeUnderLoadAndAfterStop) {
  auto cfg = stress_config();
  cfg.protocol.engine_shards = 4;

  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());

  constexpr std::size_t kWritesPerSite = 150;
  std::atomic<std::size_t> writers_left{kSites};
  std::vector<std::thread> writers;
  for (causal::SiteId s = 0; s < kSites; ++s) {
    writers.emplace_back([&, s] {
      client::Client cli(cfg, s);
      for (std::size_t i = 0; i < kWritesPerSite; ++i) {
        cli.put(static_cast<causal::VarId>(i % kVars), "w" + std::to_string(i));
      }
      writers_left.fetch_sub(1);
    });
  }
  std::size_t probes = 0;
  {
    client::Client probe(cfg, 0);
    do {
      const auto st = probe.status();
      ASSERT_EQ(st.shards.size(), 4u);
      std::uint64_t writes = 0;
      std::uint64_t reads = 0;
      std::uint64_t pending = 0;
      for (const auto& row : st.shards) {
        writes += row.writes;
        reads += row.reads;
        pending += row.pending_updates;
      }
      EXPECT_EQ(st.writes, writes);
      EXPECT_EQ(st.reads, reads);
      // The site figure adds envelopes parked on cross-shard tokens.
      EXPECT_GE(st.pending_updates, pending);
      ++probes;
    } while (writers_left.load() > 0);
  }
  for (auto& t : writers) t.join();
  EXPECT_GT(probes, 0u);

  cluster.stop();
  for (causal::SiteId s = 0; s < kSites; ++s) {
    EXPECT_EQ(cluster.servers[s]->metrics().writes, kWritesPerSite)
        << "site " << s;
  }
}

// Regression test for the dead-peer availability hole: with a blocking
// per-peer queue cap, the apply thread would park in transport send() once
// a crashed peer's queue filled — freezing every client op — and stop()
// (which joins the apply thread before stopping the transport) would then
// deadlock. The drop-oldest overflow policy must keep the site serving and
// let stop() return.
TEST(TcpStressTest, DeadPeerOverflowDoesNotWedgeSiteOrStop) {
  auto cfg = loopback_config(2, 4, 2);
  cfg.algorithm = causal::Algorithm::kOptTrack;
  cfg.peer_queue_cap = 8;  // overflow toward the dead peer quickly

  // Site 1 never starts. Every put broadcasts an update toward it; the 9th
  // would previously wedge the apply thread for good.
  server::SiteServer s0(cfg, 0);
  ASSERT_TRUE(s0.start());
  {
    client::Client cli(cfg, 0);
    for (int i = 0; i < 200; ++i) {
      cli.put(static_cast<causal::VarId>(i % 4), "v" + std::to_string(i));
    }
    EXPECT_FALSE(cli.get(0).data.empty());
  }
  std::uint64_t drops = 0;
  for (const auto& ps : s0.peer_stats()) drops += ps.overflow_drops;
  EXPECT_GT(drops, 0u);
  s0.stop();  // must return: nothing can be parked in transport send()
}

}  // namespace
}  // namespace ccpr
