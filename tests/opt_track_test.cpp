#include "causal/opt_track.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/rng.hpp"

namespace ccpr::causal {
namespace {

using ccpr::testing::applies_at;
using ccpr::testing::constant_latency;
using ccpr::testing::expect_causal;
using ccpr::testing::index_of;
using ccpr::testing::matrix_latency;
using ccpr::testing::restored_copy;

const OptTrack& ot(const SimCluster& c, SiteId s) {
  return dynamic_cast<const OptTrack&>(c.site(s));
}

TEST(OptTrackTest, WriteAddsOwnLogEntryWithoutSelf) {
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(3, 3, 2),
               constant_latency(100));
  c.write(0, 0, "a");  // var 0 at {0,1}
  const Log& log = ot(c, 0).log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sender, 0u);
  EXPECT_EQ(log[0].clock, 1u);
  EXPECT_EQ(log[0].dests, (DestSet{1}));  // own site excluded
  c.run();
  expect_causal(c);
}

TEST(OptTrackTest, Condition2PrunesAtWriterOnNextWrite) {
  // Two successive writes destined to the same site: the second write's
  // replica set subsumes the first entry's destination.
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(3, 3, 2),
               constant_latency(100));
  c.write(0, 0, "a");  // dests {1}
  c.write(0, 0, "b");  // same var, same dests
  {
    // Write 1's entry lost its destination to Condition 2 but survives the
    // purge because, at purge time, no newer record from site 0 existed yet
    // (PURGE runs before the new entry is appended, paper lines 10-13).
    const Log& log = ot(c, 0).log();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].clock, 1u);
    EXPECT_TRUE(log[0].dests.empty());
    EXPECT_EQ(log[1].clock, 2u);
    EXPECT_EQ(log[1].dests, (DestSet{1}));
  }
  c.write(0, 0, "c");
  {
    // Now write 1's empty record is no longer the newest and is dropped;
    // write 2's record just became the retained empty one.
    const Log& log = ot(c, 0).log();
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].clock, 2u);
    EXPECT_TRUE(log[0].dests.empty());
    EXPECT_EQ(log[1].clock, 3u);
  }
  c.run();
  expect_causal(c);
}

TEST(OptTrackTest, EmptyDestEntryRetainedWhileNewest) {
  // Fig. 2 of the paper: a record whose destination list became empty must
  // be kept as long as it is the newest record from its sender — it still
  // cleans other sites' logs when piggybacked.
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(3, 3, 2),
               constant_latency(100));
  c.write(0, 0, "a");
  c.write(0, 0, "b");
  const Log& log = ot(c, 0).log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].dests.empty());
  EXPECT_EQ(log[0].clock, 1u);  // retained: newest empty record at purge time
  c.run();
}

TEST(OptTrackTest, Condition1PrunesReceiverAtApply) {
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(2, 2, 2),
               constant_latency(100));
  c.write(0, 0, "a");
  c.run();
  // Site 1 applied the update; its LastWriteOn log entry must not list site
  // 1 anymore. Observe it through a read merge.
  const Value v = c.read(1, 0);
  EXPECT_EQ(v.data, "a");
  const Log& log = ot(c, 1).log();
  ASSERT_FALSE(log.empty());
  for (const LogEntry& e : log) {
    EXPECT_FALSE(e.dests.contains(1));
  }
  expect_causal(c);
}

TEST(OptTrackTest, ApplyClockUsesAssignmentSemantics) {
  // Site 0's first write is NOT locally replicated; the second is. Apply[0]
  // at site 0 must jump to the clock value (2), not count to 1.
  auto rmap = ReplicaMap::custom(2, {{1}, {0, 1}});
  SimCluster c(Algorithm::kOptTrack, std::move(rmap), constant_latency(100));
  c.write(0, 0, "only-at-1");
  c.write(0, 1, "both");
  EXPECT_EQ(ot(c, 0).clock(), 2u);
  EXPECT_EQ(ot(c, 0).applied_clock(0), 2u);
  c.run();
  EXPECT_EQ(ot(c, 1).applied_clock(0), 2u);
  expect_causal(c);
}

TEST(OptTrackTest, CausalChainRespectedAcrossSlowChannel) {
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(3, 2),
               std::move(opts));
  c.write(0, 0, "a");
  c.run_until(5'000);
  ASSERT_EQ(c.read(1, 0).data, "a");
  c.write(1, 1, "b");
  c.run();
  const auto seq = applies_at(c.history(), 2);
  EXPECT_LT(index_of(seq, WriteId{0, 1}), index_of(seq, WriteId{1, 1}));
  expect_causal(c);
}

TEST(OptTrackTest, ConcurrentWritesNotDelayed) {
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(3, 2),
               std::move(opts));
  c.write(0, 0, "a");
  c.run_until(5'000);
  c.write(1, 1, "b");  // no read: concurrent
  c.run();
  const auto seq = applies_at(c.history(), 2);
  EXPECT_LT(index_of(seq, WriteId{1, 1}), index_of(seq, WriteId{0, 1}));
  expect_causal(c);
}

TEST(OptTrackTest, RemoteReadMergesPiggybackedLog) {
  // Var 0 lives only at site 1. Site 0 reads it remotely; afterwards its
  // local log must know about the write it read.
  auto rmap = ReplicaMap::custom(2, {{1}});
  SimCluster c(Algorithm::kOptTrack, std::move(rmap), constant_latency(100));
  c.write(1, 0, "remote");
  c.run();
  const Value v = c.read(0, 0);
  EXPECT_EQ(v.data, "remote");
  const Log& log = ot(c, 0).log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log[0].sender, 1u);
  EXPECT_EQ(log[0].clock, 1u);
  expect_causal(c);
}

TEST(OptTrackTest, DistributeWriteModeIsEquivalentlyCausal) {
  auto opts = matrix_latency(3, {0, 1000, 90'000,    //
                                 1000, 0, 1000,      //
                                 90'000, 1000, 0});
  opts.protocol.distribute_write = true;
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(3, 2),
               std::move(opts));
  c.write(0, 0, "a");
  c.run_until(5'000);
  ASSERT_EQ(c.read(1, 0).data, "a");
  c.write(1, 1, "b");
  c.run();
  const auto seq = applies_at(c.history(), 2);
  EXPECT_LT(index_of(seq, WriteId{0, 1}), index_of(seq, WriteId{1, 1}));
  expect_causal(c);
}

TEST(OptTrackTest, PruningDisabledStillCausalButFatter) {
  auto opts = constant_latency(100);
  opts.protocol.prune_cond1 = false;
  opts.protocol.prune_cond2 = false;
  SimCluster fat(Algorithm::kOptTrack, ReplicaMap::even(4, 8, 2),
                 std::move(opts));
  SimCluster lean(Algorithm::kOptTrack, ReplicaMap::even(4, 8, 2),
                  constant_latency(100));
  for (int round = 0; round < 10; ++round) {
    for (SiteId s = 0; s < 4; ++s) {
      fat.write(s, (s + static_cast<VarId>(round)) % 8, "v");
      lean.write(s, (s + static_cast<VarId>(round)) % 8, "v");
    }
    fat.run();
    lean.run();
  }
  expect_causal(fat);
  expect_causal(lean);
  EXPECT_GT(fat.metrics().control_bytes, lean.metrics().control_bytes);
}

TEST(OptTrackTest, LogStaysBoundedUnderSteadyTraffic) {
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(4, 8, 2),
               constant_latency(100));
  for (int round = 0; round < 50; ++round) {
    for (SiteId s = 0; s < 4; ++s) {
      c.write(s, (s * 2) % 8, "v");
    }
    c.run();
  }
  // Pruning keeps the log around O(n), not O(total writes).
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_LE(c.site(s).log_entry_count(), 8u);
  }
  expect_causal(c);
}

/// meta_state_bytes() recomputed from scratch with log_byte_size (gossip on,
/// so the known-apply matrix counts).
std::uint64_t recount_meta_bytes(const OptTrack& p, std::uint32_t n) {
  std::uint64_t bytes = sizeof(std::uint64_t) +
                        n * sizeof(std::uint64_t) +
                        n * n * sizeof(std::uint64_t) +
                        log_byte_size(p.log());
  for (const auto& [x, lw] : p.last_write_on()) {
    bytes += sizeof(VarId) + log_byte_size(lw);
  }
  return bytes;
}

TEST(OptTrackTest, MetaStateBytesMatchesRecount) {
  struct Mode {
    const char* name;
    bool prune_cond2;
    bool distribute_write;
  };
  for (const Mode mode : {Mode{"cond2", true, false},
                          Mode{"no-cond2", false, false},
                          Mode{"distribute", true, true}}) {
    SCOPED_TRACE(mode.name);
    auto opts = constant_latency(100);
    opts.protocol.prune_cond2 = mode.prune_cond2;
    opts.protocol.distribute_write = mode.distribute_write;
    const ProtocolOptions proto = opts.protocol;
    constexpr std::uint32_t n = 4;
    constexpr std::uint32_t q = 64;
    SimCluster c(Algorithm::kOptTrack, ReplicaMap::even(n, q, 2),
                 std::move(opts));
    util::Rng rng(17);
    for (int round = 0; round < 40; ++round) {
      // One write or read (local or remote) per site over a small keyspace,
      // so keys are overwritten by logs of different sizes.
      for (SiteId s = 0; s < n; ++s) {
        const auto x = static_cast<VarId>(rng.below(q));
        if (rng.chance(0.5)) {
          c.write(s, x, "v");
        } else {
          c.read_async(s, x, [](const Value&) {});
        }
      }
      c.run();
      for (SiteId s = 0; s < n; ++s) {
        EXPECT_EQ(ot(c, s).meta_state_bytes(), recount_meta_bytes(ot(c, s), n))
            << "round " << round << " site " << s;
      }
    }
    EXPECT_FALSE(ot(c, 1).last_write_on().empty());

    metrics::Metrics m;
    const auto copy = restored_copy(c, Algorithm::kOptTrack, 1, proto, &m);
    EXPECT_EQ(copy->meta_state_bytes(), c.site(1).meta_state_bytes());
    expect_causal(c);
  }
}

}  // namespace
}  // namespace ccpr::causal
