// The protocols on real threads and real sockets: in-process SiteServer
// clusters on loopback, concurrent client sessions whose histories are
// recorded, then the same offline checker the simulator runs. Covers every
// algorithm row ClusterConfig accepts, the engine-sharded site, and the
// keyed session API over both value-store engines.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/convergence.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "server/cluster_config.hpp"
#include "store/engine/value_engine.hpp"
#include "tcp_test_support.hpp"
#include "util/rng.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;
using causal::Algorithm;
using causal::SiteId;
using causal::VarId;
using testing::drain;
using testing::expect_causal;
using testing::LocalCluster;
using testing::loopback_config;

client::Client::Options recorded_by(checker::HistoryRecorder* recorder) {
  client::Client::Options opts;
  opts.recorder = recorder;
  return opts;
}

TEST(LocalClusterTest, BasicPutGet) {
  auto cfg = loopback_config(3, 6, 2);
  cfg.algorithm = Algorithm::kOptTrack;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client writer(cfg, 0, recorded_by(&recorder));
  writer.put(0, "hello");
  drain(cfg);
  client::Client replica(cfg, 1, recorded_by(&recorder));
  client::Client remote(cfg, 2, recorded_by(&recorder));
  EXPECT_EQ(replica.get(0).data, "hello");  // var 0 lives at {0, 1}
  EXPECT_EQ(remote.get(0).data, "hello");   // remote fetch
  expect_causal(recorder, cfg.replica_map());
}

TEST(LocalClusterTest, ReadYourOwnWrites) {
  auto cfg = loopback_config(2, 4, 2);
  cfg.algorithm = Algorithm::kOptTrack;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client cli(cfg, 0, recorded_by(&recorder));
  for (int i = 0; i < 20; ++i) {
    const std::string v = "v" + std::to_string(i);
    cli.put(0, v);
    EXPECT_EQ(cli.get(0).data, v);
  }
  drain(cfg);
  expect_causal(recorder, cfg.replica_map());
}

TEST(LocalClusterTest, MetricsAccumulateAcrossSites) {
  auto cfg = loopback_config(3, 3, 3);
  cfg.algorithm = Algorithm::kOptTrackCRP;
  // Anti-entropy answers a watermark announcement by resending the updates
  // it retains, and the resend counts as another update message. Keep the
  // periodic announcements out of the run, and let every site handle its
  // peers' start-up announcements (a peer still dialling delivers its one
  // late) before the first write.
  cfg.catchup_interval_ms = 60'000;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  ASSERT_TRUE(testing::eventually(
      [&] {
        for (SiteId s = 0; s < cfg.site_count(); ++s) {
          const std::string series =
              "ccpr_catchup_requests_recv_total{site=\"" +
              std::to_string(s) + "\"}";
          if (testing::metric_value(client::Client(cfg, s).metrics_text(),
                                    series) < cfg.site_count() - 1) {
            return false;
          }
        }
        return true;
      },
      10s));
  client::Client(cfg, 0).put(0, "a");
  client::Client(cfg, 1).put(1, "b");
  drain(cfg);
  metrics::Metrics m;
  for (const auto& srv : cluster.servers) m.merge(srv->metrics());
  EXPECT_EQ(m.writes, 2u);
  EXPECT_EQ(m.update_msgs, 4u);  // 2 writes x (n-1) destinations
}

struct ThreadedSweepParam {
  Algorithm alg;
  std::uint32_t n;
  std::uint32_t p;
  const char* name;
  std::uint32_t shards = 1;  ///< engine shards per site (`engine-shards`)
};

class ThreadedSweep : public ::testing::TestWithParam<ThreadedSweepParam> {};

// One client thread per site, each a recorded session, so every site's
// process history stays sequential.
TEST_P(ThreadedSweep, ConcurrentClientsStayCausal) {
  const auto& param = GetParam();
  const std::uint32_t q = 12;
  auto cfg = loopback_config(param.n, q, param.p);
  cfg.algorithm = param.alg;
  cfg.protocol.engine_shards = param.shards;
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());

  checker::HistoryRecorder recorder;
  std::vector<std::thread> clients;
  for (SiteId s = 0; s < param.n; ++s) {
    clients.emplace_back([&cfg, &recorder, s, q] {
      client::Client cli(cfg, s, recorded_by(&recorder));
      util::Rng rng(1000 + s);
      for (int i = 0; i < 60; ++i) {
        const auto x = static_cast<VarId>(rng.below(q));
        if (rng.chance(0.4)) {
          cli.put(x, "s" + std::to_string(s) + ":" + std::to_string(i));
        } else {
          (void)cli.get(x);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  drain(cfg);
  for (SiteId s = 0; s < param.n; ++s) {
    EXPECT_EQ(client::Client(cfg, s).status().pending_updates, 0u)
        << "site " << s;
  }
  expect_causal(recorder, cfg.replica_map());
}

// gtest prints the raw bytes of each param, padding included, into the
// test's listed name. Static storage zero-fills that padding, so the
// names stay the same from build to build (stack temporaries would leak
// whatever earlier calls left on the stack).
const ThreadedSweepParam kThreadedSweepParams[] = {
    {Algorithm::kOptTrack, 4, 2, "OptTrack_partial"},
    {Algorithm::kOptTrack, 4, 2, "OptTrack_partial_shards4", 4},
    {Algorithm::kOptTrack, 4, 4, "OptTrack_full"},
    {Algorithm::kFullTrack, 4, 2, "FullTrack_partial"},
    {Algorithm::kOptTrackCRP, 4, 4, "CRP"},
    {Algorithm::kOptP, 4, 4, "OptP"},
    {Algorithm::kAhamad, 4, 4, "Ahamad"},
};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ThreadedSweep, ::testing::ValuesIn(kThreadedSweepParams),
    [](const ::testing::TestParamInfo<ThreadedSweepParam>& param_info) {
      return param_info.param.name;
    });

// ---- keyed sessions (Client::put_key / get_key) ----

/// A loopback cluster whose vars are named by `keys`, one var per key.
server::ClusterConfig keyed_config(std::uint32_t n, std::uint32_t p,
                                   const std::vector<std::string>& keys) {
  auto cfg = loopback_config(n, static_cast<std::uint32_t>(keys.size()), p);
  for (VarId x = 0; x < keys.size(); ++x) {
    cfg.key_names.emplace_back(x, keys[x]);
  }
  cfg.algorithm = Algorithm::kOptTrack;
  return cfg;
}

const std::vector<std::string> kThreeKeys = {"alice:wall", "bob:wall",
                                             "carol:wall"};

// Keyed-session behaviour must be engine-independent: every test below runs
// once per value-store engine, selected by the config's `store-engine`.
class KvSessionTest : public ::testing::TestWithParam<store::EngineKind> {
 protected:
  server::ClusterConfig with_engine(server::ClusterConfig cfg) const {
    cfg.protocol.store_engine.kind = GetParam();
    cfg.protocol.store_engine.shards = 2;  // tiny tables, more edge cases
    return cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, KvSessionTest,
                         ::testing::Values(store::EngineKind::kMap,
                                           store::EngineKind::kCompact),
                         [](const auto& param_info) {
                           return std::string(
                               store::engine_kind_token(param_info.param));
                         });

TEST_P(KvSessionTest, PutThenGetSameSession) {
  const auto cfg = with_engine(keyed_config(3, 2, kThreeKeys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client s(cfg, 0);
  s.put_key("alice:wall", "first post!");
  EXPECT_EQ(s.get_key("alice:wall"), "first post!");
  drain(cfg);
}

TEST_P(KvSessionTest, CrossSessionVisibilityAfterFlush) {
  const auto cfg = with_engine(keyed_config(3, 2, kThreeKeys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client a(cfg, 0);
  client::Client b(cfg, 2);
  a.put_key("alice:wall", "hello from 0");
  drain(cfg);
  EXPECT_EQ(b.get_key("alice:wall"), "hello from 0");
}

TEST_P(KvSessionTest, UnwrittenKeyReadsEmpty) {
  const auto cfg = with_engine(keyed_config(3, 2, kThreeKeys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  EXPECT_EQ(client::Client(cfg, 1).get_key("bob:wall"), "");
}

TEST_P(KvSessionTest, CausalAcrossKeysAndSessions) {
  // The classic comment-after-post pattern, checked end to end.
  const auto cfg = with_engine(keyed_config(3, 2, kThreeKeys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client alice(cfg, 0, recorded_by(&recorder));
  client::Client bob(cfg, 1, recorded_by(&recorder));
  alice.put_key("alice:wall", "photo");
  // Bob reads the photo, then comments on his wall.
  ASSERT_TRUE(testing::eventually(
      [&] { return bob.get_key("alice:wall") == "photo"; }, 10s, 1ms));
  bob.put_key("bob:wall", "nice photo!");
  drain(cfg);
  expect_causal(recorder, cfg.replica_map());
}

TEST_P(KvSessionTest, ConvergenceAuditAfterQuiescence) {
  const auto cfg = with_engine(keyed_config(3, 3, kThreeKeys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  client::Client(cfg, 0).put_key("alice:wall", "a");
  client::Client(cfg, 1).put_key("bob:wall", "b");
  drain(cfg);

  std::vector<std::unique_ptr<client::Client>> peekers;
  for (SiteId s = 0; s < cfg.site_count(); ++s) {
    peekers.push_back(std::make_unique<client::Client>(cfg, s));
  }
  const auto peek = [&](SiteId s, VarId x) { return peekers[s]->get(x); };
  checker::ConvergenceReport report;
  EXPECT_TRUE(testing::eventually(
      [&] {
        report = checker::audit_convergence(cfg.replica_map(), peek);
        return report.converged();
      },
      10s));
  EXPECT_EQ(report.vars_checked, 3u);
  EXPECT_TRUE(report.converged());
}

TEST_P(KvSessionTest, ConcurrentSessionsRemainCausal) {
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("k" + std::to_string(i));
  const auto cfg = with_engine(keyed_config(4, 2, keys));
  LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  std::vector<std::thread> clients;
  for (SiteId s = 0; s < 4; ++s) {
    clients.emplace_back([&cfg, &recorder, s] {
      client::Client session(cfg, s, recorded_by(&recorder));
      for (int i = 0; i < 40; ++i) {
        const std::string key =
            "k" + std::to_string((s + static_cast<SiteId>(i)) % 8);
        if (i % 3 == 0) {
          session.put_key(key, "v" + std::to_string(i));
        } else {
          (void)session.get_key(key);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  drain(cfg);
  expect_causal(recorder, cfg.replica_map());
}

}  // namespace
}  // namespace ccpr
