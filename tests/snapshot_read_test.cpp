// Causally consistent multi-key snapshot reads (Client::snapshot, served by
// ProtocolEngine::async_snapshot) on in-process TCP clusters.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "client/error.hpp"
#include "tcp_test_support.hpp"

namespace ccpr::causal {
namespace {

using testing::drain;
using testing::LocalCluster;
using testing::loopback_config;

TEST(SnapshotReadTest, ReturnsAllValuesInKeyOrder) {
  const auto cfg = loopback_config(2, 3, 2);
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client writer(cfg, 0);
  writer.put(0, "a");
  writer.put(1, "b");
  writer.put(2, "c");
  drain(cfg);
  const auto values = client::Client(cfg, 1).snapshot({0, 1, 2});
  ASSERT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0].data, "a");
  EXPECT_EQ(values[1].data, "b");
  EXPECT_EQ(values[2].data, "c");
}

TEST(SnapshotReadTest, UnwrittenKeysReadInitial) {
  auto cfg = loopback_config(2, 2, 2);
  cfg.algorithm = Algorithm::kOptTrackCRP;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  const auto values = client::Client(cfg, 0).snapshot({0, 1});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_TRUE(values[0].id.is_initial());
  EXPECT_TRUE(values[1].id.is_initial());
}

TEST(SnapshotReadTest, RequiresLocalReplication) {
  // Var 0 lives only at site 1; site 0 answers kNotReplicated.
  auto cfg = loopback_config(2, 1, 1);
  cfg.placement_overrides.emplace_back(0, std::vector<SiteId>{1});
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client cli(cfg, 0);
  try {
    (void)cli.snapshot({0});
    ADD_FAILURE() << "snapshot of a var not replicated at the site succeeded";
  } catch (const client::Error& e) {
    EXPECT_EQ(e.kind(), client::ErrorKind::kServer);
    EXPECT_FALSE(e.retryable());
    EXPECT_NE(std::string(e.what()).find("not replicated at site"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotReadTest, CutIsCausallyClosedUnderConcurrentWriters) {
  // Writer thread repeatedly writes x then y referring to x's round; the
  // snapshot must never see y from a newer round than x. Sequential gets
  // could interleave with the delivery between the two reads; a snapshot
  // cannot. One engine shard: a sharded site serves a snapshot as a
  // sequence of per-shard cuts (docs/RUNTIMES.md), which this does not pin.
  auto cfg = loopback_config(2, 2, 2);
  cfg.protocol.engine_shards = 1;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client::Options recorded;
  recorded.recorder = &recorder;

  std::atomic<bool> stop{false};
  std::thread writer([&cfg, &recorded, &stop] {
    client::Client cli(cfg, 0, recorded);
    for (int round = 1; round < 200 && !stop; ++round) {
      cli.put(0, std::to_string(round));  // x
      cli.put(1, std::to_string(round));  // y, causally after x
    }
  });

  client::Client reader(cfg, 1, recorded);
  for (int i = 0; i < 300; ++i) {
    const auto values = reader.snapshot({0, 1});
    const int x = values[0].data.empty() ? 0 : std::stoi(values[0].data);
    const int y = values[1].data.empty() ? 0 : std::stoi(values[1].data);
    // y's round may lag x's (x written first) but never lead it: y(round)
    // causally depends on x(round).
    EXPECT_LE(y, x) << "snapshot saw y from round " << y
                    << " with x from round " << x;
  }
  stop = true;
  writer.join();
  drain(cfg);
  testing::expect_causal(recorder, cfg.replica_map());
}

TEST(SnapshotReadTest, NamedKeySnapshot) {
  auto cfg = loopback_config(2, 2, 2);
  cfg.key_names = {{0, "balance"}, {1, "ledger"}};
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client writer(cfg, 0);
  writer.put_key("balance", "100");
  writer.put_key("ledger", "deposit 100");
  drain(cfg);
  client::Client reader(cfg, 1);
  const auto snap = reader.snapshot(
      {reader.keys().intern("ledger"), reader.keys().intern("balance")});
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].data, "deposit 100");
  EXPECT_EQ(snap[1].data, "100");
}

}  // namespace
}  // namespace ccpr::causal
