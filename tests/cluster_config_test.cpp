// Cluster config parser tests: the text format, derived replica map / key
// space, validation diagnostics, and text round-tripping.
#include "server/cluster_config.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ccpr::server {
namespace {

constexpr const char* kBasic = R"(
# three sites, six vars, two replicas each
algorithm opt-track
vars 6
replicas 2
site 0 127.0.0.1 9000 9100
site 1 127.0.0.1 9001 9101
site 2 10.0.0.3 9002 9102   # a remote site
place 4 0,2
key 0 alpha
key 5 omega
fetch-timeout-us 250000
)";

TEST(ClusterConfigTest, ParsesBasicConfig) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->algorithm, causal::Algorithm::kOptTrack);
  EXPECT_EQ(cfg->vars, 6u);
  EXPECT_EQ(cfg->replicas_per_var, 2u);
  ASSERT_EQ(cfg->site_count(), 3u);
  EXPECT_EQ(cfg->sites[2].host, "10.0.0.3");
  EXPECT_EQ(cfg->sites[2].peer_port, 9002);
  EXPECT_EQ(cfg->sites[2].client_port, 9102);
  EXPECT_EQ(cfg->protocol.fetch_timeout_us, 250000u);
}

TEST(ClusterConfigTest, ReplicaMapUsesRingPlusOverrides) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto rmap = cfg->replica_map();
  EXPECT_EQ(rmap.sites(), 3u);
  EXPECT_EQ(rmap.vars(), 6u);
  // Ring placement: var x lives at sites x, x+1 (mod 3)...
  EXPECT_TRUE(rmap.replicated_at(0, 0));
  EXPECT_TRUE(rmap.replicated_at(0, 1));
  EXPECT_FALSE(rmap.replicated_at(0, 2));
  // ...except var 4, whose placement was overridden to {0, 2}.
  EXPECT_TRUE(rmap.replicated_at(4, 0));
  EXPECT_FALSE(rmap.replicated_at(4, 1));
  EXPECT_TRUE(rmap.replicated_at(4, 2));
}

TEST(ClusterConfigTest, KeySpaceMixesDefaultsAndOverrides) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto keys = cfg->key_space();
  EXPECT_EQ(keys.size(), 6u);
  EXPECT_EQ(keys.name(0), "alpha");
  EXPECT_EQ(keys.name(1), "key1");
  EXPECT_EQ(keys.name(5), "omega");
  EXPECT_EQ(keys.intern("alpha"), 0u);
}

TEST(ClusterConfigTest, TextRoundTrip) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto again = ClusterConfig::parse(cfg->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), cfg->to_text());
  EXPECT_EQ(again->vars, cfg->vars);
  EXPECT_EQ(again->sites.size(), cfg->sites.size());
  EXPECT_EQ(again->placement_overrides, cfg->placement_overrides);
}

TEST(ClusterConfigTest, IoTuningKeysParseAndRoundTrip) {
  const std::string text = std::string(kBasic) +
                           "sender-batch-bytes 131072\n"
                           "peer-queue-cap 8192\n"
                           "engine-queue-cap 512\n";
  std::string error;
  const auto cfg = ClusterConfig::parse(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->sender_batch_bytes, 131072u);
  EXPECT_EQ(cfg->peer_queue_cap, 8192u);
  EXPECT_EQ(cfg->engine_queue_cap, 512u);
  const auto again = ClusterConfig::parse(cfg->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->sender_batch_bytes, 131072u);
  EXPECT_EQ(again->peer_queue_cap, 8192u);
  EXPECT_EQ(again->engine_queue_cap, 512u);
  EXPECT_EQ(again->to_text(), cfg->to_text());

  // Omitted keys mean "runtime default" and must not serialize.
  const auto base = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(base.has_value()) << error;
  EXPECT_EQ(base->sender_batch_bytes, 0u);
  EXPECT_EQ(base->peer_queue_cap, 0u);
  EXPECT_EQ(base->engine_queue_cap, 0u);
  EXPECT_EQ(base->to_text().find("sender-batch-bytes"), std::string::npos);
}

TEST(ClusterConfigTest, AllAlgorithmTokensParse) {
  for (const char* token :
       {"full-track", "opt-track", "opt-track-crp", "optp", "ahamad",
        "eventual"}) {
    const std::string text = std::string("algorithm ") + token +
                             "\nvars 2\nsite 0 127.0.0.1 1 2\n";
    std::string error;
    const auto cfg = ClusterConfig::parse(text, &error);
    ASSERT_TRUE(cfg.has_value()) << token << ": " << error;
    EXPECT_STREQ(causal::algorithm_token(cfg->algorithm), token);
  }
}

TEST(ClusterConfigTest, RejectsMalformedInput) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "no 'site' lines"},
      {"vars 4\nsite 0 h 1 2\nsite 0 h 3 4\n", "duplicate"},
      {"vars 4\nsite 1 h 1 2\n", "dense"},
      {"vars 4\nsite 0 h 1 2\nbogus 1\n", "unknown keyword"},
      {"vars 4\nsite 0 h 1 2\nalgorithm nope\n", "unknown algorithm"},
      {"vars 0\nsite 0 h 1 2\n", "vars"},
      {"vars 4\nsite 0 h 1 2\nplace 9 0\n", "out of range"},
      {"vars 4\nsite 0 h 1 2\nplace 1 0,7\n", "out of range"},
      {"vars 4\nsite 0 h 1 2\nkey 9 x\n", "out of range"},
      {"vars 4\nsite 0 h 99999 2\n", "site"},
  };
  for (const auto& [text, needle] : cases) {
    std::string error;
    EXPECT_FALSE(ClusterConfig::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error for {" << text << "} was: " << error;
  }
}

TEST(ClusterConfigTest, NumbersAreParsedStrictly) {
  // "80x80" used to parse as 80 via std::stoul's prefix rule; the strict
  // parser rejects trailing garbage, signs, and empty fields, and the
  // diagnostic names the offending line.
  const char* bad_numbers[] = {
      "vars 4\nsite 0 h 80x80 2\n",
      "vars 4\nsite 0 h 1 2x\n",
      "vars 4x\nsite 0 h 1 2\n",
      "vars +4\nsite 0 h 1 2\n",
      "vars -4\nsite 0 h 1 2\n",
      "vars 99999999999999999999\nsite 0 h 1 2\n",
      "vars 4\nsite 0 h 1 2\nfetch-timeout-us 250000us\n",
  };
  for (const char* text : bad_numbers) {
    std::string error;
    EXPECT_FALSE(ClusterConfig::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("line "), std::string::npos)
        << "error for {" << text << "} lacks a line number: " << error;
  }
  // Exact values still parse, including the extremes.
  std::string error;
  const auto cfg =
      ClusterConfig::parse("vars 4294967295\nsite 0 h 65535 1\n", &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->vars, 4294967295u);
  EXPECT_EQ(cfg->sites[0].peer_port, 65535);
}

TEST(ClusterConfigTest, PlacementRejectsDuplicateSites) {
  std::string error;
  EXPECT_FALSE(
      ClusterConfig::parse(
          "vars 4\nsite 0 h 1 2\nsite 1 h 3 4\nplace 1 0,1,0\n", &error)
          .has_value());
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;

  // The same rule guards programmatic configs through validate().
  auto cfg = ClusterConfig::loopback(3, 6, 2, 0);
  cfg.placement_overrides.emplace_back(
      1, std::vector<causal::SiteId>{2, 2});
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("twice"), std::string::npos) << error;

  cfg.placement_overrides.back().second = {2, 0};
  EXPECT_TRUE(cfg.validate(&error)) << error;
}

TEST(ClusterConfigTest, ValidateCatchesBadProgrammaticConfigs) {
  std::string error;
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    EXPECT_TRUE(cfg.validate(&error)) << error;
  }
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    cfg.vars = 0;
    EXPECT_FALSE(cfg.validate(&error));
  }
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    cfg.replicas_per_var = 0;
    EXPECT_FALSE(cfg.validate(&error));
  }
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    cfg.placement_overrides.emplace_back(
        9, std::vector<causal::SiteId>{0});  // var out of range
    EXPECT_FALSE(cfg.validate(&error));
  }
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    cfg.placement_overrides.emplace_back(
        1, std::vector<causal::SiteId>{5});  // site out of range
    EXPECT_FALSE(cfg.validate(&error));
  }
  {
    auto cfg = ClusterConfig::loopback(2, 4, 2, 0);
    cfg.key_names.emplace_back(9, "ghost");  // var out of range
    EXPECT_FALSE(cfg.validate(&error));
  }
}

TEST(ClusterConfigTest, DurabilityKeysParseAndRoundTrip) {
  const std::string text = std::string(kBasic) +
                           "catchup-interval-ms 250\n"
                           "catchup-timeout-ms 5000\n"
                           "checkpoint-every 2048\n";
  std::string error;
  const auto cfg = ClusterConfig::parse(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->catchup_interval_ms, 250u);
  EXPECT_EQ(cfg->catchup_timeout_ms, 5000u);
  EXPECT_EQ(cfg->checkpoint_every, 2048u);
  const auto again = ClusterConfig::parse(cfg->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), cfg->to_text());
  EXPECT_EQ(again->checkpoint_every, 2048u);

  // Omitted keys mean "runtime default" and must not serialize.
  const auto base = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(base.has_value()) << error;
  EXPECT_EQ(base->to_text().find("catchup-"), std::string::npos);
}

TEST(ClusterConfigTest, StoreEngineKeysParseAndRoundTrip) {
  const std::string text = std::string(kBasic) +
                           "store-engine compact\n"
                           "store-shards 16\n"
                           "store-inline-max 128\n"
                           "store-spill-budget-bytes 67108864\n";
  std::string error;
  const auto cfg = ClusterConfig::parse(text, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto& eng = cfg->protocol.store_engine;
  EXPECT_EQ(eng.kind, store::EngineKind::kCompact);
  EXPECT_EQ(eng.shards, 16u);
  EXPECT_EQ(eng.inline_max, 128u);
  EXPECT_EQ(eng.spill_budget_bytes, 67108864u);
  const auto again = ClusterConfig::parse(cfg->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->to_text(), cfg->to_text());
  EXPECT_EQ(again->protocol.store_engine.kind, store::EngineKind::kCompact);

  // The default engine is implicit: no store-* keys in serialized output.
  const auto base = ClusterConfig::parse(kBasic, &error);
  ASSERT_TRUE(base.has_value()) << error;
  EXPECT_EQ(base->protocol.store_engine.kind, store::EngineKind::kMap);
  EXPECT_EQ(base->to_text().find("store-"), std::string::npos);

  // Malformed values are rejected with the offending keyword named.
  const char* bad[] = {
      "store-engine lsm\n",
      "store-shards 0\n",
      "store-inline-max many\n",
      "store-spill-budget-bytes -1\n",
  };
  for (const auto* line : bad) {
    EXPECT_FALSE(
        ClusterConfig::parse(std::string(kBasic) + line, &error).has_value())
        << line;
  }
}

constexpr const char* kGeo = R"(
algorithm opt-track
vars 6
replicas 2
placement region
region eu 2ms
region us            # default intra latency
link eu us 80ms
site 0 127.0.0.1 9000 9100 eu
site 1 127.0.0.1 9001 9101 eu
site 2 127.0.0.1 9002 9102 us
site 3 127.0.0.1 9003 9103 us
)";

TEST(ClusterConfigTest, ParsesGeoTopology) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kGeo, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->placement, PlacementPolicy::kRegion);
  const auto& topo = cfg->topology;
  ASSERT_EQ(topo.region_count(), 2u);
  EXPECT_EQ(topo.region_names[0], "eu");
  EXPECT_EQ(topo.region_names[1], "us");
  EXPECT_EQ(topo.intra_us[0], 2'000u);
  EXPECT_EQ(topo.intra_us[1], Topology::kDefaultIntraUs);
  ASSERT_EQ(topo.region_of_site.size(), 4u);
  EXPECT_EQ(topo.region_name_of(0), "eu");
  EXPECT_EQ(topo.region_name_of(3), "us");
  EXPECT_EQ(topo.link_us(0, 1), 80'000u);
  EXPECT_EQ(topo.link_us(1, 0), 80'000u);  // symmetric
  EXPECT_EQ(topo.site_distance_us(0, 1), 2'000u);
  EXPECT_EQ(topo.site_distance_us(0, 0), 0u);
  EXPECT_EQ(topo.site_distance_us(1, 2), 80'000u);
}

TEST(ClusterConfigTest, GeoTopologyRoundTrips) {
  std::string error;
  const auto cfg = ClusterConfig::parse(kGeo, &error);
  ASSERT_TRUE(cfg.has_value()) << error;
  const auto again = ClusterConfig::parse(cfg->to_text(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->topology, cfg->topology);
  EXPECT_EQ(again->placement, cfg->placement);
  EXPECT_EQ(again->to_text(), cfg->to_text());
}

TEST(ClusterConfigTest, DurationTokensParse) {
  const std::pair<const char*, std::uint32_t> cases[] = {
      {"750us", 750u}, {"80ms", 80'000u}, {"1s", 1'000'000u}, {"0us", 0u},
  };
  for (const auto& [tok, us] : cases) {
    const std::string text = std::string("vars 1\nregion eu ") + tok +
                             "\nsite 0 h 1 2 eu\n";
    std::string error;
    const auto cfg = ClusterConfig::parse(text, &error);
    ASSERT_TRUE(cfg.has_value()) << tok << ": " << error;
    EXPECT_EQ(cfg->topology.intra_us[0], us) << tok;
  }
}

TEST(ClusterConfigTest, RejectsMalformedGeoInput) {
  const std::pair<const char*, const char*> cases[] = {
      // Unit-less or garbage latency classes.
      {"vars 1\nregion eu 80\nsite 0 h 1 2 eu\n", "region"},
      {"vars 1\nregion eu 80m\nsite 0 h 1 2 eu\n", "region"},
      {"vars 1\nregion eu 2ms\nregion eu 3ms\nsite 0 h 1 2 eu\n",
       "duplicate region"},
      // A site naming an undeclared region.
      {"vars 1\nsite 0 h 1 2 mars\n", "unknown region"},
      // Regions declared but a site left unassigned.
      {"vars 1\nregion eu\nsite 0 h 1 2\n", "missing region"},
      // Links: unknown region, intra link, duplicate (either order).
      {"vars 1\nregion eu\nlink eu mars 80ms\nsite 0 h 1 2 eu\n",
       "unknown region"},
      {"vars 1\nregion eu\nlink eu eu 80ms\nsite 0 h 1 2 eu\n",
       "intra-region"},
      {"vars 1\nregion eu\nregion us\nlink eu us 80ms\nlink us eu 90ms\n"
       "site 0 h 1 2 eu\nsite 1 h 3 4 us\n",
       "duplicate link"},
      // Placement: unknown policy, seed on the wrong policy, region
      // placement without regions.
      {"vars 1\nsite 0 h 1 2\nplacement zigzag\n", "unknown placement"},
      {"vars 1\nsite 0 h 1 2\nplacement ring 7\n", "seed"},
      {"vars 1\nsite 0 h 1 2\nplacement region\n", "requires"},
      {"vars 1\nregion eu\nlink eu us 80ms\nsite 0 h 1 2 eu\n",
       "unknown region"},
  };
  for (const auto& [text, needle] : cases) {
    std::string error;
    EXPECT_FALSE(ClusterConfig::parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find(needle), std::string::npos)
        << "error for {" << text << "} was: " << error;
  }
}

/// Random valid config touching EVERY serializable field; to_text() must
/// parse back to an identical config (and identical re-serialization).
ClusterConfig random_config(util::Rng& rng) {
  ClusterConfig cfg;
  const char* algs[] = {"full-track", "opt-track", "opt-track-crp",
                        "optp",       "ahamad",    "eventual"};
  cfg.algorithm = *causal::algorithm_from_token(
      algs[rng.below(std::size(algs))]);
  const auto n = static_cast<std::uint32_t>(1 + rng.below(6));
  cfg.vars = static_cast<std::uint32_t>(1 + rng.below(12));
  cfg.replicas_per_var = static_cast<std::uint32_t>(1 + rng.below(n + 2));
  cfg.sites.resize(n);
  const char* hosts[] = {"127.0.0.1", "10.1.2.3", "node.example.com",
                         "host-7"};
  for (auto& site : cfg.sites) {
    site.host = hosts[rng.below(std::size(hosts))];
    site.peer_port = static_cast<std::uint16_t>(1 + rng.below(65535));
    site.client_port = static_cast<std::uint16_t>(1 + rng.below(65535));
  }
  const bool geo = rng.chance(0.7);
  if (geo) {
    const auto regions = static_cast<std::uint32_t>(1 + rng.below(3));
    const char* names[] = {"eu", "us-east", "ap1"};
    for (std::uint32_t r = 0; r < regions; ++r) {
      cfg.topology.region_names.push_back(names[r]);
      cfg.topology.intra_us.push_back(
          static_cast<std::uint32_t>(rng.below(5'000'000)));
    }
    for (std::uint32_t s = 0; s < n; ++s) {
      cfg.topology.region_of_site.push_back(
          static_cast<std::uint32_t>(rng.below(regions)));
    }
    for (std::uint32_t a = 0; a < regions; ++a) {
      for (std::uint32_t b = a + 1; b < regions; ++b) {
        if (rng.chance(0.5)) {
          cfg.topology.links.push_back(Topology::Link{
              a, b, static_cast<std::uint32_t>(rng.below(500'000'000))});
        }
      }
    }
  }
  const auto policy = rng.below(geo ? 3 : 2);
  cfg.placement = static_cast<PlacementPolicy>(policy);
  if (cfg.placement == PlacementPolicy::kHash && rng.chance(0.7)) {
    cfg.placement_seed = static_cast<std::uint32_t>(1 + rng.below(1u << 30));
  }
  if (rng.chance(0.5)) {
    const auto x = static_cast<causal::VarId>(rng.below(cfg.vars));
    std::vector<causal::SiteId> sites_of_x;
    for (causal::SiteId s = 0; s < n; ++s) {
      if (sites_of_x.empty() || rng.chance(0.4)) sites_of_x.push_back(s);
    }
    cfg.placement_overrides.emplace_back(x, std::move(sites_of_x));
  }
  if (rng.chance(0.5)) {
    const auto x = static_cast<causal::VarId>(rng.below(cfg.vars));
    cfg.key_names.emplace_back(x, "name" + std::to_string(x));
  }
  cfg.protocol.convergent = rng.chance(0.5);
  cfg.protocol.fetch_gating = !rng.chance(0.3);
  const auto opt_u32 = [&rng](double p) {
    return rng.chance(p) ? static_cast<std::uint32_t>(1 + rng.below(1u << 24))
                         : 0u;
  };
  cfg.protocol.fetch_timeout_us = opt_u32(0.5);
  cfg.sender_batch_bytes = opt_u32(0.5);
  cfg.peer_queue_cap = opt_u32(0.5);
  cfg.engine_queue_cap = opt_u32(0.5);
  cfg.catchup_interval_ms = opt_u32(0.5);
  cfg.catchup_timeout_ms = opt_u32(0.5);
  cfg.checkpoint_every = opt_u32(0.5);
  if (rng.chance(0.5)) {
    cfg.protocol.store_engine.kind = store::EngineKind::kCompact;
  }
  if (rng.chance(0.4)) {
    cfg.protocol.store_engine.shards =
        static_cast<std::uint32_t>(1 + rng.below(64));
  }
  if (rng.chance(0.4)) {
    cfg.protocol.store_engine.inline_max =
        static_cast<std::uint32_t>(rng.below(4096));
  }
  if (rng.chance(0.4)) {
    cfg.protocol.store_engine.spill_budget_bytes = 1 + rng.below(1u << 28);
  }
  return cfg;
}

TEST(ClusterConfigTest, EveryFieldRoundTripsProperty) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    const auto cfg = random_config(rng);
    std::string error;
    ASSERT_TRUE(cfg.validate(&error)) << "seed " << seed << ": " << error;
    const auto text = cfg.to_text();
    const auto back = ClusterConfig::parse(text, &error);
    ASSERT_TRUE(back.has_value())
        << "seed " << seed << ": " << error << "\n" << text;
    EXPECT_EQ(back->algorithm, cfg.algorithm) << text;
    EXPECT_EQ(back->vars, cfg.vars) << text;
    EXPECT_EQ(back->replicas_per_var, cfg.replicas_per_var) << text;
    EXPECT_EQ(back->placement, cfg.placement) << text;
    EXPECT_EQ(back->placement_seed, cfg.placement_seed) << text;
    ASSERT_EQ(back->sites.size(), cfg.sites.size()) << text;
    for (std::size_t s = 0; s < cfg.sites.size(); ++s) {
      EXPECT_EQ(back->sites[s].host, cfg.sites[s].host) << text;
      EXPECT_EQ(back->sites[s].peer_port, cfg.sites[s].peer_port) << text;
      EXPECT_EQ(back->sites[s].client_port, cfg.sites[s].client_port)
          << text;
    }
    EXPECT_EQ(back->topology, cfg.topology) << text;
    EXPECT_EQ(back->placement_overrides, cfg.placement_overrides) << text;
    EXPECT_EQ(back->key_names, cfg.key_names) << text;
    EXPECT_EQ(back->protocol.convergent, cfg.protocol.convergent) << text;
    EXPECT_EQ(back->protocol.fetch_gating, cfg.protocol.fetch_gating)
        << text;
    EXPECT_EQ(back->protocol.fetch_timeout_us, cfg.protocol.fetch_timeout_us)
        << text;
    EXPECT_EQ(back->sender_batch_bytes, cfg.sender_batch_bytes) << text;
    EXPECT_EQ(back->peer_queue_cap, cfg.peer_queue_cap) << text;
    EXPECT_EQ(back->engine_queue_cap, cfg.engine_queue_cap) << text;
    EXPECT_EQ(back->catchup_interval_ms, cfg.catchup_interval_ms) << text;
    EXPECT_EQ(back->catchup_timeout_ms, cfg.catchup_timeout_ms) << text;
    EXPECT_EQ(back->checkpoint_every, cfg.checkpoint_every) << text;
    EXPECT_EQ(back->protocol.store_engine.kind,
              cfg.protocol.store_engine.kind)
        << text;
    EXPECT_EQ(back->protocol.store_engine.shards,
              cfg.protocol.store_engine.shards)
        << text;
    EXPECT_EQ(back->protocol.store_engine.inline_max,
              cfg.protocol.store_engine.inline_max)
        << text;
    EXPECT_EQ(back->protocol.store_engine.spill_budget_bytes,
              cfg.protocol.store_engine.spill_budget_bytes)
        << text;
    // And serialization is a fixed point.
    EXPECT_EQ(back->to_text(), text);
  }
}

TEST(ClusterConfigTest, LoopbackHelper) {
  const auto cfg = ClusterConfig::loopback(4, 10, 2, 6200);
  EXPECT_EQ(cfg.site_count(), 4u);
  EXPECT_EQ(cfg.vars, 10u);
  EXPECT_EQ(cfg.sites[3].host, "127.0.0.1");
  EXPECT_EQ(cfg.sites[3].peer_port, 6203);
  EXPECT_EQ(cfg.sites[3].client_port, 6207);
  // base_port 0 = kernel-assigned everywhere.
  const auto anon = ClusterConfig::loopback(2, 4, 2, 0);
  EXPECT_EQ(anon.sites[1].peer_port, 0);
}

}  // namespace
}  // namespace ccpr::server
