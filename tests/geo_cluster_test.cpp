// One geo config file drives every runtime: examples/geo_3x3.conf (path
// baked in as CCPR_GEO_CONF) is loaded unchanged to (a) build the sim
// runtime's latency model and placement, (b) boot a full in-process TCP
// cluster whose status and Prometheus output carry region labels, and
// (c) verify proximity-aware fetch routing on the exact replica map the
// servers use.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "causal/sim_cluster.hpp"
#include "checker/causal_checker.hpp"
#include "client/client.hpp"
#include "server/cluster_config.hpp"
#include "store/placement.hpp"
#include "tcp_test_support.hpp"
#include "workload/workload.hpp"

namespace ccpr {
namespace {

server::ClusterConfig load_geo_conf() {
  std::string error;
  const auto cfg = server::ClusterConfig::load(CCPR_GEO_CONF, &error);
  EXPECT_TRUE(cfg.has_value()) << error;
  return cfg.value();
}

TEST(GeoClusterTest, ExampleConfResolves) {
  const auto cfg = load_geo_conf();
  EXPECT_EQ(cfg.placement, server::PlacementPolicy::kRegion);
  EXPECT_EQ(cfg.site_count(), 9u);
  EXPECT_EQ(cfg.vars, 18u);
  EXPECT_EQ(cfg.replicas_per_var, 3u);
  const auto& topo = cfg.topology;
  ASSERT_EQ(topo.region_count(), 3u);
  EXPECT_EQ(topo.region_names, (std::vector<std::string>{"eu", "us", "ap"}));
  for (std::uint32_t r = 0; r < 3; ++r) {
    EXPECT_EQ(topo.sites_in_region(r).size(), 3u);
  }
  EXPECT_EQ(topo.link_us(0, 1), 40'000u);
  EXPECT_EQ(topo.link_us(0, 2), 90'000u);
  EXPECT_EQ(topo.link_us(1, 2), 70'000u);
}

TEST(GeoClusterTest, RegionPlacementKeepsReplicasHomeAndMatchesStore) {
  const auto cfg = load_geo_conf();
  const auto rmap = cfg.replica_map();
  const auto direct = store::region_placement(
      cfg.topology.region_of_site, cfg.topology.home_region_of_var(cfg.vars),
      cfg.replicas_per_var);
  for (causal::VarId x = 0; x < cfg.vars; ++x) {
    const auto reps = rmap.replicas(x);
    ASSERT_EQ(reps.size(), 3u);
    // 3 replicas fit the 3-site home region exactly: no spill.
    const auto home = cfg.topology.region_of(x % 9);
    for (const auto s : reps) EXPECT_EQ(cfg.topology.region_of(s), home);
    const auto want = direct.replicas(x);
    ASSERT_EQ(reps.size(), want.size());
    for (std::size_t i = 0; i < reps.size(); ++i) {
      EXPECT_EQ(reps[i], want[i]);
    }
  }
}

TEST(GeoClusterTest, FetchRoutingIntraVsCrossRegion) {
  const auto cfg = load_geo_conf();
  const auto rmap = cfg.replica_map();
  ASSERT_TRUE(rmap.has_site_distances());
  for (causal::VarId x = 0; x < cfg.vars; ++x) {
    const auto home = cfg.topology.region_of(x % 9);
    for (causal::SiteId reader = 0; reader < 9; ++reader) {
      const auto target = rmap.fetch_target(x, reader);
      EXPECT_TRUE(rmap.replicated_at(x, target));
      if (cfg.topology.region_of(reader) == home) {
        // Co-located reader: never routed cross-region.
        EXPECT_EQ(cfg.topology.region_of(target), home)
            << "var " << x << " reader " << reader;
      } else {
        // No replica in the reader's region: the fetch must cross into the
        // home region, and ranked fallback still reaches every replica.
        EXPECT_NE(cfg.topology.region_of(target),
                  cfg.topology.region_of(reader));
        std::set<causal::SiteId> seen;
        for (std::uint32_t rank = 0; rank < 3; ++rank) {
          seen.insert(rmap.fetch_target_ranked(x, reader, rank));
        }
        EXPECT_EQ(seen.size(), 3u);
      }
    }
  }
}

TEST(GeoClusterTest, OneConfigDrivesSimRuntime) {
  const auto cfg = load_geo_conf();
  workload::WorkloadSpec spec;
  spec.ops_per_site = 120;
  spec.write_rate = 0.4;
  spec.seed = 11;
  const auto program = workload::generate_program(spec, cfg.replica_map());

  causal::SimCluster::Options opts;
  opts.latency = cfg.topology.make_latency(0.1);
  opts.protocol = cfg.protocol;
  causal::SimCluster cluster(cfg.algorithm, cfg.replica_map(),
                             std::move(opts));
  cluster.run_program(program);

  const auto m = cluster.metrics();
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.remote_reads, 0u);  // partial replication forces fetches
  const auto result = checker::check_causal_consistency(cluster.history(),
                                                        cfg.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

TEST(GeoClusterTest, TcpClusterReportsRegionsInStatusAndMetrics) {
  auto cfg = load_geo_conf();
  // The example's fixed ports are for humans; tests take kernel-assigned
  // ones so parallel ctest runs cannot collide.
  testing::assign_free_ports(cfg);
  testing::LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());

  // Nearest-site selection: lowest-id site of the named region.
  EXPECT_EQ(client::Client::nearest_site(cfg, "eu"), 0u);
  EXPECT_EQ(client::Client::nearest_site(cfg, "ap"), 6u);
  EXPECT_THROW((void)client::Client::nearest_site(cfg, "mars"),
               std::runtime_error);

  {
    client::Client cli(cfg, client::Client::nearest_site(cfg, "eu"));
    // Var 0's home region is eu (site 0 anchors it): a co-located session
    // writes and reads it without leaving the region.
    cli.put(0, "bonjour");
    EXPECT_EQ(cli.get(0).data, "bonjour");

    auto st = cli.status();
    EXPECT_EQ(st.site, 0u);
    EXPECT_EQ(st.region, "eu");
    ASSERT_EQ(st.region_peers.size(), 3u);
    EXPECT_EQ(st.region_peers[0].region, "eu");
    EXPECT_EQ(st.region_peers[0].peers, 2u);  // self is not a peer
    EXPECT_EQ(st.region_peers[1].region, "us");
    EXPECT_EQ(st.region_peers[1].peers, 3u);
    EXPECT_EQ(st.region_peers[2].region, "ap");
    EXPECT_EQ(st.region_peers[2].peers, 3u);
    // The put propagated to the other eu replicas, so this site dials its
    // intra-region peers; the sender threads connect asynchronously.
    for (int i = 0; i < 250 && st.region_peers[0].connected < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      st = cli.status();
    }
    EXPECT_EQ(st.region_peers[0].connected, 2u);

    const auto text = cli.metrics_text();
    EXPECT_NE(text.find("ccpr_site_region{site=\"0\",region=\"eu\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("peer=\"1\",region=\"eu\""), std::string::npos);
    EXPECT_NE(text.find("peer=\"3\",region=\"us\""), std::string::npos);
    EXPECT_NE(text.find("peer=\"8\",region=\"ap\""), std::string::npos);
    EXPECT_NE(text.find("ccpr_peer_connected"), std::string::npos);
  }
  {
    // A session in another region still reads var 0 via RemoteFetch.
    client::Client cli(cfg, client::Client::nearest_site(cfg, "us"));
    EXPECT_EQ(cli.get(0).data, "bonjour");
    const auto st = cli.status();
    EXPECT_EQ(st.region, "us");
  }
}

}  // namespace
}  // namespace ccpr
