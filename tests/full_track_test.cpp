#include "causal/full_track.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace ccpr::causal {
namespace {

using ccpr::testing::applies_at;
using ccpr::testing::constant_latency;
using ccpr::testing::expect_causal;
using ccpr::testing::index_of;
using ccpr::testing::matrix_latency;
using ccpr::testing::restored_copy;

const FullTrack& ft(const SimCluster& c, SiteId s) {
  return dynamic_cast<const FullTrack&>(c.site(s));
}

TEST(FullTrackTest, LocalWriteAppliesImmediately) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(2, 4),
               constant_latency(1000));
  c.write(0, 0, "a");
  EXPECT_EQ(c.site(0).peek(0).data, "a");
  EXPECT_TRUE(c.site(1).peek(0).data.empty());  // not yet delivered
  c.run();
  EXPECT_EQ(c.site(1).peek(0).data, "a");
  expect_causal(c);
}

TEST(FullTrackTest, WriteClockCountsPerDestination) {
  // even(3, q, 2): var 0 lives at {0,1}; var 2 lives at {2,0}.
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::even(3, 6, 2),
               constant_latency(100));
  c.write(0, 0, "a");  // destined to sites 0 and 1
  const auto& w = ft(c, 0).write_clock();
  EXPECT_EQ(w.at(0, 0), 1u);
  EXPECT_EQ(w.at(0, 1), 1u);
  EXPECT_EQ(w.at(0, 2), 0u);
  c.write(0, 2, "b");  // var 2 destined to sites 0 and 2
  EXPECT_EQ(ft(c, 0).write_clock().at(0, 2), 1u);
  EXPECT_EQ(ft(c, 0).write_clock().at(0, 0), 2u);
  c.run();
  expect_causal(c);
}

TEST(FullTrackTest, PiggybackedClockMergedOnlyAtRead) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(2, 2),
               constant_latency(10));
  c.write(0, 0, "a");
  c.run();  // update applied at site 1
  EXPECT_EQ(ft(c, 1).applied_from(0), 1u);
  // Receipt alone must not advance site 1's Write clock (->co, not ->).
  EXPECT_EQ(ft(c, 1).write_clock().at(0, 0), 0u);
  const Value v = c.read(1, 0);
  EXPECT_EQ(v.data, "a");
  EXPECT_EQ(ft(c, 1).write_clock().at(0, 0), 1u);
  expect_causal(c);
}

TEST(FullTrackTest, CausalChainRespectedAcrossSlowChannel) {
  // s0 -> s2 is slow; s0 -> s1 and s1 -> s2 are fast. s1 reads s0's write
  // then writes; s2 must apply the writes in causal order even though they
  // arrive reversed.
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(3, 2),
               std::move(opts));
  c.write(0, 0, "a");
  c.run_until(5'000);  // a reached s1 but not s2
  EXPECT_EQ(c.site(1).peek(0).data, "a");
  EXPECT_TRUE(c.site(2).peek(0).data.empty());
  const Value v = c.read(1, 0);
  ASSERT_EQ(v.data, "a");
  c.write(1, 1, "b");  // causally after w(x)a via the read
  c.run();
  const auto seq = applies_at(c.history(), 2);
  const auto ia = index_of(seq, WriteId{0, 1});
  const auto ib = index_of(seq, WriteId{1, 1});
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  EXPECT_LT(ia, ib);  // a applied before b at s2
  expect_causal(c);
}

TEST(FullTrackTest, NoFalseCausalityWithoutRead) {
  // Same topology, but s1 writes WITHOUT reading s0's value: the writes are
  // concurrent under ->co, so s2 may (and here, will) apply b first. This is
  // exactly the false causality that A_OPT eliminates and A_ORG would not.
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(3, 2),
               std::move(opts));
  c.write(0, 0, "a");
  c.run_until(5'000);
  c.write(1, 1, "b");  // concurrent with a: s1 never read it
  c.run();
  const auto seq = applies_at(c.history(), 2);
  const auto ia = index_of(seq, WriteId{0, 1});
  const auto ib = index_of(seq, WriteId{1, 1});
  ASSERT_GE(ia, 0);
  ASSERT_GE(ib, 0);
  EXPECT_LT(ib, ia);  // b did NOT wait for a
  expect_causal(c);
}

TEST(FullTrackTest, RemoteReadFetchesFromReplica) {
  // even(3, 3, 1): var 2 lives only at site 2.
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::even(3, 3, 1),
               constant_latency(500));
  c.write(2, 2, "z");
  c.run();
  const Value v = c.read(0, 2);
  EXPECT_EQ(v.data, "z");
  EXPECT_EQ(v.id, (WriteId{2, 1}));
  const auto m = c.metrics();
  EXPECT_EQ(m.remote_reads, 1u);
  EXPECT_EQ(m.fetch_req_msgs, 1u);
  EXPECT_EQ(m.fetch_resp_msgs, 1u);
  expect_causal(c);
}

TEST(FullTrackTest, ReadOfUnwrittenVariableReturnsInitial) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(2, 2),
               constant_latency(10));
  const Value v = c.read(0, 1);
  EXPECT_TRUE(v.id.is_initial());
  EXPECT_TRUE(v.data.empty());
}

TEST(FullTrackTest, PerWriterFifoAtRemoteSite) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(2, 1),
               constant_latency(100));
  for (int i = 1; i <= 20; ++i) {
    c.write(0, 0, "v" + std::to_string(i));
  }
  c.run();
  const auto seq = applies_at(c.history(), 1);
  ASSERT_EQ(seq.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(seq[i], (WriteId{0, i + 1}));
  }
  EXPECT_EQ(c.site(1).peek(0).data, "v20");
  expect_causal(c);
}

TEST(FullTrackTest, UpdateCountsMatchReplication) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::even(5, 5, 3),
               constant_latency(10));
  c.write(0, 0, "a");  // var 0 at {0,1,2}: 2 remote updates
  c.run();
  EXPECT_EQ(c.metrics().update_msgs, 2u);
  EXPECT_EQ(c.pending_updates(), 0u);
}

TEST(FullTrackTest, MetaStateBytesGrowWithWrites) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::full(3, 8),
               constant_latency(10));
  const auto before = c.site(0).meta_state_bytes();
  c.write(0, 0, "a");
  c.write(0, 1, "b");
  EXPECT_GT(c.site(0).meta_state_bytes(), before);
  EXPECT_EQ(c.site(0).log_entry_count(), (1u + 2u) * 9u);
  c.run();
}

TEST(FullTrackTest, MetaStateBytesSurviveStateRoundTrip) {
  SimCluster c(Algorithm::kFullTrack, ReplicaMap::even(4, 16, 2),
               constant_latency(10));
  for (VarId x = 0; x < 16; ++x) c.write(x % 4, x, "v");
  c.run();
  metrics::Metrics m;
  const auto copy = restored_copy(c, Algorithm::kFullTrack, 1, {}, &m);
  EXPECT_EQ(copy->meta_state_bytes(), c.site(1).meta_state_bytes());
  EXPECT_EQ(copy->log_entry_count(), c.site(1).log_entry_count());
}

}  // namespace
}  // namespace ccpr::causal
