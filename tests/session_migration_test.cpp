// Client migration between sites. A roaming client's operations span two
// application processes, so causal memory alone does NOT protect its
// session guarantees — the coverage-token handshake must.
#include <gtest/gtest.h>

#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "tcp_test_support.hpp"
#include "test_support.hpp"

namespace ccpr::causal {
namespace {

using ccpr::testing::matrix_latency;

class SessionMigration : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SessionMigration, WithoutHandshakeTheMoveCanBeStale) {
  // Site 2 lags site 0 by 90ms. A client that wrote at site 0 and
  // immediately continues at site 2 reads its write's variable as initial:
  // exactly the anomaly migration must prevent. (Legal for causal memory —
  // two different processes — which is why the checker stays green.)
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(GetParam(), ReplicaMap::full(3, 2), std::move(opts));
  c.write(0, 0, "mine");
  EXPECT_TRUE(c.site(2).peek(0).data.empty());  // naive move would be stale
  c.run();
  ccpr::testing::expect_causal(c);
}

TEST_P(SessionMigration, AwaitCoverageMakesTheMoveSafe) {
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(GetParam(), ReplicaMap::full(3, 2), std::move(opts));
  c.write(0, 0, "mine");
  c.await_coverage(/*from=*/0, /*to=*/2);
  // Read-your-writes survives the migration.
  EXPECT_EQ(c.read(2, 0).data, "mine");
  c.run();
  ccpr::testing::expect_causal(c);
}

TEST_P(SessionMigration, MonotonicReadsSurviveMigration) {
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(GetParam(), ReplicaMap::full(3, 2), std::move(opts));
  c.write(0, 0, "v1");
  c.run();
  c.write(0, 0, "v2");
  c.run_until(c.scheduler().now() + 5'000);  // v2 reached site 1, not 2
  ASSERT_EQ(c.read(1, 0).data, "v2");        // session observed v2 at site 1
  c.await_coverage(1, 2);
  EXPECT_EQ(c.read(2, 0).data, "v2");  // no regression to v1 after moving
  c.run();
  ccpr::testing::expect_causal(c);
}

TEST_P(SessionMigration, CoverageIsImmediateWhenTargetIsFresh) {
  SimCluster c(GetParam(), ReplicaMap::full(2, 2),
               ccpr::testing::constant_latency(1'000));
  c.write(0, 0, "x");
  c.run();  // fully propagated
  EXPECT_EQ(c.await_coverage(0, 1), 0u);  // nothing to wait for
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, SessionMigration,
    ::testing::Values(Algorithm::kFullTrack, Algorithm::kOptTrack,
                      Algorithm::kOptTrackCRP, Algorithm::kOptP,
                      Algorithm::kAhamad),
    [](const ::testing::TestParamInfo<Algorithm>& param_info) {
      std::string name = algorithm_name(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SessionMigrationPartial, TokenOnlyWaitsForTargetRelevantWrites) {
  // Partial replication: writes NOT destined to the target must not block
  // the migration. Var 0 lives at {0,1}; var 1 lives at {0,2}. A write to
  // var 0 (never reaching site 2) must not stall await_coverage(0, 2).
  auto rmap = ReplicaMap::custom(3, {{0, 1}, {0, 2}});
  SimCluster c(Algorithm::kOptTrack, std::move(rmap),
               ccpr::testing::constant_latency(50'000));
  c.write(0, 0, "only-for-site-1");
  // The update to site 1 is still in flight, yet site 2 needs nothing.
  EXPECT_EQ(c.await_coverage(0, 2), 0u);
  c.write(0, 1, "for-site-2");
  EXPECT_GT(c.await_coverage(0, 2), 0u);  // now there is something to wait on
  EXPECT_EQ(c.site(2).peek(1).data, "for-site-2");
  c.run();
}

TEST(SessionMigrationStore, ClientSessionMigrates) {
  auto cfg = ccpr::testing::loopback_config(3, 2, 2);
  cfg.key_names = {{0, "inbox"}, {1, "drafts"}};
  ccpr::testing::LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client::Options copts;
  copts.recorder = &recorder;
  client::Client session(cfg, 0, copts);
  session.put_key("inbox", "42 unread");
  session.migrate(2);
  EXPECT_EQ(session.site(), 2u);
  EXPECT_EQ(session.get_key("inbox"), "42 unread");  // read-your-writes held
  ccpr::testing::drain(cfg);
  ccpr::testing::expect_causal(recorder, cfg.replica_map());
}

}  // namespace
}  // namespace ccpr::causal
