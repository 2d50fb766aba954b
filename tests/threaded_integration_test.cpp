// The same protocol objects on real threads: concurrent application
// processes, real interleavings, then the same offline checker.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "causal/threaded_cluster.hpp"
#include "checker/causal_checker.hpp"
#include "util/rng.hpp"

namespace ccpr::causal {
namespace {

void expect_causal(const ThreadedCluster& c) {
  const auto result =
      checker::check_causal_consistency(c.history(), c.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

TEST(ThreadedClusterTest, BasicPutGet) {
  ThreadedCluster c(Algorithm::kOptTrack, ReplicaMap::even(3, 6, 2));
  c.write(0, 0, "hello");
  c.drain();
  EXPECT_EQ(c.read(1, 0).data, "hello");  // var 0 lives at {0, 1}
  EXPECT_EQ(c.read(2, 0).data, "hello");  // remote fetch
  expect_causal(c);
}

TEST(ThreadedClusterTest, ReadYourOwnWrites) {
  ThreadedCluster c(Algorithm::kOptTrack, ReplicaMap::even(2, 4, 2));
  for (int i = 0; i < 20; ++i) {
    const std::string v = "v" + std::to_string(i);
    c.write(0, 0, v);
    EXPECT_EQ(c.read(0, 0).data, v);
  }
  c.drain();
  expect_causal(c);
}

struct ThreadedSweepParam {
  Algorithm alg;
  std::uint32_t n;
  std::uint32_t p;
  const char* name;
  std::uint32_t shards = 1;  ///< engine shards per site (ShardGroup when >1)
};

class ThreadedSweep : public ::testing::TestWithParam<ThreadedSweepParam> {};

TEST_P(ThreadedSweep, ConcurrentClientsStayCausal) {
  const auto& param = GetParam();
  const std::uint32_t q = 12;
  ThreadedCluster::Options opts;
  opts.max_delay_us = 300;  // widen interleavings
  opts.protocol.engine_shards = param.shards;
  ThreadedCluster c(param.alg, ReplicaMap::even(param.n, q, param.p), opts);

  std::vector<std::thread> clients;
  for (SiteId s = 0; s < param.n; ++s) {
    clients.emplace_back([&c, s, q] {
      util::Rng rng(1000 + s);
      for (int i = 0; i < 60; ++i) {
        const auto x = static_cast<VarId>(rng.below(q));
        if (rng.chance(0.4)) {
          c.write(s, x, "s" + std::to_string(s) + ":" + std::to_string(i));
        } else {
          (void)c.read(s, x);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  c.drain();
  EXPECT_EQ(c.pending_updates(), 0u);
  expect_causal(c);
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

TEST(ThreadedClusterTest, MetricsAccumulateAcrossSites) {
  ThreadedCluster c(Algorithm::kOptTrackCRP, ReplicaMap::full(3, 3));
  c.write(0, 0, "a");
  c.write(1, 1, "b");
  c.drain();
  const auto m = c.metrics();
  EXPECT_EQ(m.writes, 2u);
  EXPECT_EQ(m.update_msgs, 4u);  // 2 writes x (n-1) destinations
}

}  // namespace
}  // namespace ccpr::causal
