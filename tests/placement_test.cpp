// Key naming (store::KeySpace) and the placement policies that map keys
// onto sites (store::hash_placement, store::region_placement).
#include "store/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "store/key_space.hpp"

namespace ccpr::store {
namespace {

TEST(KeySpaceTest, InternsRegisteredKeys) {
  const KeySpace ks({"a", "b", "c"});
  EXPECT_EQ(ks.size(), 3u);
  EXPECT_EQ(ks.intern("a"), 0u);
  EXPECT_EQ(ks.intern("c"), 2u);
  EXPECT_EQ(ks.name(1), "b");
  EXPECT_TRUE(ks.contains("b"));
  EXPECT_FALSE(ks.contains("zzz"));
}

TEST(KeySpaceTest, DuplicateKeyRejected) {
  EXPECT_DEATH({ KeySpace ks({"a", "a"}); }, "Precondition");
}

TEST(HashPlacementTest, ProducesPDistinctReplicas) {
  const auto rmap = hash_placement(6, 30, 3, 42);
  EXPECT_EQ(rmap.vars(), 30u);
  for (causal::VarId x = 0; x < 30; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 3u);  // distinct by construction
  }
  EXPECT_DOUBLE_EQ(rmap.replication_factor(), 3.0);
}

TEST(HashPlacementTest, DeterministicPerSeedAndSpreads) {
  const auto a = hash_placement(5, 40, 2, 7);
  const auto b = hash_placement(5, 40, 2, 7);
  std::vector<std::size_t> load(5, 0);
  for (causal::VarId x = 0; x < 40; ++x) {
    const auto ra = a.replicas(x);
    const auto rb = b.replicas(x);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
    for (const auto s : ra) ++load[s];
  }
  for (const auto l : load) EXPECT_GT(l, 4u);  // no starved site
}

TEST(RegionPlacementTest, StaysInHomeRegionWhenPossible) {
  const std::vector<std::uint32_t> region_of_site{0, 0, 0, 1, 1, 1};
  const std::vector<std::uint32_t> home{0, 1, 0, 1};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 4; ++x) {
    for (const auto s : rmap.replicas(x)) {
      EXPECT_EQ(region_of_site[s], home[x]);
    }
  }
}

TEST(RegionPlacementTest, SpillsWhenRegionTooSmall) {
  const std::vector<std::uint32_t> region_of_site{0, 1, 1};
  const std::vector<std::uint32_t> home{0};
  const auto rmap = region_placement(region_of_site, home, 2);
  const auto reps = rmap.replicas(0);
  ASSERT_EQ(reps.size(), 2u);
  EXPECT_TRUE(std::find(reps.begin(), reps.end(), 0u) != reps.end());
}

TEST(RegionPlacementTest, ClampsWhenPExceedsTotalSites) {
  // p beyond the cluster degrades to full replication (every site once),
  // matching the ring policy's clamp instead of aborting.
  const std::vector<std::uint32_t> region_of_site{0, 1, 1};
  const std::vector<std::uint32_t> home{0, 1};
  const auto rmap = region_placement(region_of_site, home, 7);
  for (causal::VarId x = 0; x < 2; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 3u);
  }
  EXPECT_TRUE(rmap.fully_replicated());
}

TEST(RegionPlacementTest, SkipsZeroSiteRegions) {
  // Region 1 exists (home of var 1) but holds no sites; its vars spill to
  // the next regions and every var still gets exactly p replicas.
  const std::vector<std::uint32_t> region_of_site{0, 0, 2, 2};
  const std::vector<std::uint32_t> home{0, 1, 2};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 3; ++x) {
    EXPECT_EQ(rmap.replicas(x).size(), 2u);
  }
  // Var 1's walk starts at empty region 1 and lands in region 2.
  for (const auto s : rmap.replicas(1)) {
    EXPECT_EQ(region_of_site[s], 2u);
  }
}

TEST(RegionPlacementTest, SingleRegionIsRoundRobin) {
  const std::vector<std::uint32_t> region_of_site{0, 0, 0, 0};
  const std::vector<std::uint32_t> home{0, 0, 0, 0, 0};
  const auto rmap = region_placement(region_of_site, home, 2);
  for (causal::VarId x = 0; x < 5; ++x) {
    const auto reps = rmap.replicas(x);
    ASSERT_EQ(reps.size(), 2u);
    // Round-robin by var id: {x mod 4, x+1 mod 4} within the one region.
    EXPECT_TRUE(rmap.replicated_at(x, x % 4));
    EXPECT_TRUE(rmap.replicated_at(x, (x + 1) % 4));
  }
}

}  // namespace
}  // namespace ccpr::store
