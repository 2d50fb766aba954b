#include "server/cluster_config.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "store/placement.hpp"
#include "util/assert.hpp"

namespace ccpr::server {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string tok;
  while (ss >> tok) {
    if (tok[0] == '#') break;  // rest of the line is a comment
    out.push_back(tok);
  }
  return out;
}

// Strict full-token parse: unlike std::stoul, trailing garbage ("80x80"),
// a leading sign, whitespace and empty tokens are all rejected, and
// overflow reports failure instead of throwing.
bool parse_u32(const std::string& tok, std::uint32_t* out) {
  std::uint32_t v = 0;
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec != std::errc() || ptr != last || first == last) return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& tok, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* first = tok.data();
  const char* last = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec != std::errc() || ptr != last || first == last) return false;
  *out = v;
  return true;
}

bool parse_u16(const std::string& tok, std::uint16_t* out) {
  std::uint32_t v = 0;
  if (!parse_u32(tok, &v) || v > 0xffff) return false;
  *out = static_cast<std::uint16_t>(v);
  return true;
}

bool parse_bool(const std::string& tok, bool* out) {
  if (tok == "true" || tok == "1" || tok == "yes") {
    *out = true;
    return true;
  }
  if (tok == "false" || tok == "0" || tok == "no") {
    *out = false;
    return true;
  }
  return false;
}

/// Latency class token: a number with a mandatory unit — "80ms", "500us",
/// "1s" — parsed to one-way microseconds. Unit-less numbers are rejected so
/// a config cannot silently mean the wrong scale.
bool parse_duration_us(const std::string& tok, std::uint32_t* out) {
  std::size_t unit = tok.size();
  while (unit > 0 && !(tok[unit - 1] >= '0' && tok[unit - 1] <= '9')) {
    --unit;
  }
  const std::string digits = tok.substr(0, unit);
  const std::string suffix = tok.substr(unit);
  std::uint32_t v = 0;
  if (!parse_u32(digits, &v)) return false;
  std::uint64_t us = 0;
  if (suffix == "us") {
    us = v;
  } else if (suffix == "ms") {
    us = static_cast<std::uint64_t>(v) * 1'000;
  } else if (suffix == "s") {
    us = static_cast<std::uint64_t>(v) * 1'000'000;
  } else {
    return false;
  }
  if (us > 0xffffffffULL) return false;
  *out = static_cast<std::uint32_t>(us);
  return true;
}

/// Render microseconds in the largest exact unit, the inverse of
/// parse_duration_us (to_text round-trips through it).
std::string format_duration_us(std::uint32_t us) {
  if (us >= 1'000'000 && us % 1'000'000 == 0) {
    return std::to_string(us / 1'000'000) + "s";
  }
  if (us >= 1'000 && us % 1'000 == 0) {
    return std::to_string(us / 1'000) + "ms";
  }
  return std::to_string(us) + "us";
}

/// "0,2,5" -> {0, 2, 5}. Duplicate ids are rejected: a replica set is a
/// set, and a doubled site would silently skew the placement quorum.
bool parse_site_list(const std::string& tok,
                     std::vector<causal::SiteId>* out) {
  std::stringstream ss(tok);
  std::string part;
  while (std::getline(ss, part, ',')) {
    std::uint32_t s = 0;
    if (part.empty() || !parse_u32(part, &s)) return false;
    for (const causal::SiteId prev : *out) {
      if (prev == s) return false;
    }
    out->push_back(s);
  }
  return !out->empty();
}

}  // namespace

const char* placement_token(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRing: return "ring";
    case PlacementPolicy::kHash: return "hash";
    case PlacementPolicy::kRegion: return "region";
  }
  return "ring";
}

causal::ReplicaMap ClusterConfig::replica_map() const {
  const std::uint32_t n = site_count();
  CCPR_EXPECTS(n > 0 && vars > 0);
  const std::uint32_t p = std::min(replicas_per_var, n);
  std::vector<std::vector<causal::SiteId>> replicas(vars);
  switch (placement) {
    case PlacementPolicy::kRing:
      for (causal::VarId x = 0; x < vars; ++x) {
        for (std::uint32_t k = 0; k < p; ++k) {
          replicas[x].push_back((x + k) % n);
        }
      }
      break;
    case PlacementPolicy::kHash: {
      const auto base = store::hash_placement(n, vars, p, placement_seed);
      for (causal::VarId x = 0; x < vars; ++x) {
        const auto reps = base.replicas(x);
        replicas[x].assign(reps.begin(), reps.end());
      }
      break;
    }
    case PlacementPolicy::kRegion: {
      CCPR_EXPECTS(!topology.empty());
      const auto base = store::region_placement(
          topology.region_of_site, topology.home_region_of_var(vars), p);
      for (causal::VarId x = 0; x < vars; ++x) {
        const auto reps = base.replicas(x);
        replicas[x].assign(reps.begin(), reps.end());
      }
      break;
    }
  }
  for (const auto& [x, sites_of_x] : placement_overrides) {
    CCPR_EXPECTS(x < vars);
    replicas[x] = sites_of_x;
  }
  auto rmap = causal::ReplicaMap::custom(n, std::move(replicas));
  if (!topology.empty()) {
    rmap.set_site_distances(topology.site_distance_matrix());
  }
  return rmap;
}

store::KeySpace ClusterConfig::key_space() const {
  std::vector<std::string> keys;
  keys.reserve(vars);
  for (std::uint32_t i = 0; i < vars; ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  for (const auto& [x, name] : key_names) {
    CCPR_EXPECTS(x < vars);
    keys[x] = name;
  }
  return store::KeySpace(std::move(keys));
}

std::optional<ClusterConfig> ClusterConfig::parse(const std::string& text,
                                                  std::string* error) {
  const auto fail = [error](std::string msg) -> std::optional<ClusterConfig> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };

  ClusterConfig cfg;
  std::vector<std::pair<std::uint32_t, SiteAddress>> site_lines;
  // Region names on site/link lines resolve after the whole file is read,
  // so declaration order does not matter.
  std::vector<std::pair<std::size_t, std::string>> site_regions;  // by line
  struct LinkLine {
    std::size_t lineno;
    std::string a, b;
    std::uint32_t us;
  };
  std::vector<LinkLine> link_lines;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& kw = toks[0];
    const auto want = [&](std::size_t n) { return toks.size() == n + 1; };
    const auto where = [&] {
      return "line " + std::to_string(lineno) + ": ";
    };
    if (kw == "algorithm") {
      if (!want(1)) return fail(where() + "algorithm <token>");
      const auto alg = causal::algorithm_from_token(toks[1]);
      if (!alg) return fail(where() + "unknown algorithm '" + toks[1] + "'");
      cfg.algorithm = *alg;
    } else if (kw == "vars") {
      if (!want(1) || !parse_u32(toks[1], &cfg.vars) || cfg.vars == 0) {
        return fail(where() + "vars <positive count>");
      }
    } else if (kw == "replicas") {
      if (!want(1) || !parse_u32(toks[1], &cfg.replicas_per_var) ||
          cfg.replicas_per_var == 0) {
        return fail(where() + "replicas <positive count>");
      }
    } else if (kw == "site") {
      std::uint32_t id = 0;
      SiteAddress addr;
      if ((!want(4) && !want(5)) || !parse_u32(toks[1], &id) ||
          !parse_u16(toks[3], &addr.peer_port) ||
          !parse_u16(toks[4], &addr.client_port)) {
        return fail(where() +
                    "site <id> <host> <peer-port> <client-port> [region]");
      }
      addr.host = toks[2];
      if (want(5)) {
        site_regions.emplace_back(site_lines.size(), toks[5]);
      }
      site_lines.emplace_back(id, std::move(addr));
    } else if (kw == "region") {
      std::uint32_t intra = Topology::kDefaultIntraUs;
      if ((!want(1) && !want(2)) ||
          (want(2) && !parse_duration_us(toks[2], &intra))) {
        return fail(where() + "region <name> [intra-latency, e.g. 2ms]");
      }
      if (cfg.topology.region_id(toks[1]).has_value()) {
        return fail(where() + "duplicate region '" + toks[1] + "'");
      }
      cfg.topology.region_names.push_back(toks[1]);
      cfg.topology.intra_us.push_back(intra);
    } else if (kw == "link") {
      std::uint32_t us = 0;
      if (!want(3) || !parse_duration_us(toks[3], &us)) {
        return fail(where() + "link <region> <region> <latency, e.g. 80ms>");
      }
      link_lines.push_back(LinkLine{lineno, toks[1], toks[2], us});
    } else if (kw == "placement") {
      if (!want(1) && !want(2)) {
        return fail(where() + "placement ring|hash|region [hash-seed]");
      }
      if (toks[1] == "ring") {
        cfg.placement = PlacementPolicy::kRing;
      } else if (toks[1] == "hash") {
        cfg.placement = PlacementPolicy::kHash;
      } else if (toks[1] == "region") {
        cfg.placement = PlacementPolicy::kRegion;
      } else {
        return fail(where() + "unknown placement '" + toks[1] + "'");
      }
      if (want(2)) {
        if (cfg.placement != PlacementPolicy::kHash ||
            !parse_u32(toks[2], &cfg.placement_seed)) {
          return fail(where() + "placement seed is for 'hash' only");
        }
      }
    } else if (kw == "place") {
      std::uint32_t x = 0;
      std::vector<causal::SiteId> sites_of_x;
      if (!want(2) || !parse_u32(toks[1], &x) ||
          !parse_site_list(toks[2], &sites_of_x)) {
        return fail(where() + "place <var> <site,site,...>");
      }
      cfg.placement_overrides.emplace_back(x, std::move(sites_of_x));
    } else if (kw == "key") {
      std::uint32_t x = 0;
      if (!want(2) || !parse_u32(toks[1], &x)) {
        return fail(where() + "key <var> <name>");
      }
      cfg.key_names.emplace_back(x, toks[2]);
    } else if (kw == "convergent") {
      if (!want(1) || !parse_bool(toks[1], &cfg.protocol.convergent)) {
        return fail(where() + "convergent <bool>");
      }
    } else if (kw == "no-gating") {
      bool no_gating = false;
      if (!want(1) || !parse_bool(toks[1], &no_gating)) {
        return fail(where() + "no-gating <bool>");
      }
      cfg.protocol.fetch_gating = !no_gating;
    } else if (kw == "fetch-timeout-us") {
      std::uint32_t us = 0;
      if (!want(1) || !parse_u32(toks[1], &us)) {
        return fail(where() + "fetch-timeout-us <microseconds>");
      }
      cfg.protocol.fetch_timeout_us = us;
    } else if (kw == "sender-batch-bytes") {
      if (!want(1) || !parse_u32(toks[1], &cfg.sender_batch_bytes)) {
        return fail(where() + "sender-batch-bytes <bytes>");
      }
    } else if (kw == "peer-queue-cap") {
      if (!want(1) || !parse_u32(toks[1], &cfg.peer_queue_cap)) {
        return fail(where() + "peer-queue-cap <messages>");
      }
    } else if (kw == "engine-queue-cap") {
      if (!want(1) || !parse_u32(toks[1], &cfg.engine_queue_cap)) {
        return fail(where() + "engine-queue-cap <commands>");
      }
    } else if (kw == "engine-shards") {
      if (!want(1) || !parse_u32(toks[1], &cfg.protocol.engine_shards) ||
          cfg.protocol.engine_shards == 0 ||
          cfg.protocol.engine_shards > 256) {
        return fail(where() + "engine-shards <count, 1..256>");
      }
    } else if (kw == "catchup-interval-ms") {
      if (!want(1) || !parse_u32(toks[1], &cfg.catchup_interval_ms)) {
        return fail(where() + "catchup-interval-ms <milliseconds>");
      }
    } else if (kw == "catchup-timeout-ms") {
      if (!want(1) || !parse_u32(toks[1], &cfg.catchup_timeout_ms)) {
        return fail(where() + "catchup-timeout-ms <milliseconds>");
      }
    } else if (kw == "checkpoint-every") {
      if (!want(1) || !parse_u32(toks[1], &cfg.checkpoint_every)) {
        return fail(where() + "checkpoint-every <records>");
      }
    } else if (kw == "store-engine") {
      if (!want(1) ||
          !store::parse_engine_kind(toks[1], &cfg.protocol.store_engine.kind)) {
        return fail(where() + "store-engine map|compact");
      }
    } else if (kw == "store-shards") {
      if (!want(1) ||
          !parse_u32(toks[1], &cfg.protocol.store_engine.shards) ||
          cfg.protocol.store_engine.shards == 0) {
        return fail(where() + "store-shards <count>");
      }
    } else if (kw == "store-inline-max") {
      if (!want(1) ||
          !parse_u32(toks[1], &cfg.protocol.store_engine.inline_max)) {
        return fail(where() + "store-inline-max <bytes>");
      }
    } else if (kw == "store-spill-budget-bytes") {
      if (!want(1) ||
          !parse_u64(toks[1],
                     &cfg.protocol.store_engine.spill_budget_bytes)) {
        return fail(where() + "store-spill-budget-bytes <bytes>");
      }
    } else if (kw == "heartbeat-interval") {
      if (!want(1) || !parse_duration_us(toks[1], &cfg.heartbeat_interval_us) ||
          cfg.heartbeat_interval_us == 0) {
        return fail(where() + "heartbeat-interval <duration, e.g. 250ms>");
      }
    } else if (kw == "suspect-after") {
      if (!want(1) || !parse_duration_us(toks[1], &cfg.suspect_after_us) ||
          cfg.suspect_after_us == 0) {
        return fail(where() + "suspect-after <duration, e.g. 1s>");
      }
    } else {
      return fail(where() + "unknown keyword '" + kw + "'");
    }
  }

  if (site_lines.empty()) return fail("no 'site' lines");
  cfg.sites.resize(site_lines.size());
  std::vector<bool> seen(site_lines.size(), false);
  std::vector<std::string> region_by_id(site_lines.size());
  for (std::size_t i = 0; i < site_lines.size(); ++i) {
    auto& [id, addr] = site_lines[i];
    if (id >= cfg.sites.size()) {
      return fail("site ids must be dense 0..n-1 (got " +
                  std::to_string(id) + " of " +
                  std::to_string(cfg.sites.size()) + " sites)");
    }
    if (seen[id]) return fail("duplicate site id " + std::to_string(id));
    seen[id] = true;
    cfg.sites[id] = std::move(addr);
    for (const auto& [line_index, name] : site_regions) {
      if (line_index == i) region_by_id[id] = name;
    }
  }
  if (!cfg.topology.empty() || !site_regions.empty()) {
    cfg.topology.region_of_site.resize(cfg.sites.size());
    for (std::size_t id = 0; id < cfg.sites.size(); ++id) {
      if (region_by_id[id].empty()) {
        return fail("site " + std::to_string(id) +
                    ": missing region (regions are declared)");
      }
      const auto r = cfg.topology.region_id(region_by_id[id]);
      if (!r) {
        return fail("site " + std::to_string(id) + ": unknown region '" +
                    region_by_id[id] + "'");
      }
      cfg.topology.region_of_site[id] = *r;
    }
  }
  for (const auto& ll : link_lines) {
    const auto a = cfg.topology.region_id(ll.a);
    const auto b = cfg.topology.region_id(ll.b);
    if (!a || !b) {
      return fail("line " + std::to_string(ll.lineno) +
                  ": link names an unknown region");
    }
    cfg.topology.links.push_back(Topology::Link{*a, *b, ll.us});
  }
  std::string verr;
  if (!cfg.validate(&verr)) return fail(std::move(verr));
  return cfg;
}

bool ClusterConfig::validate(std::string* error) const {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (sites.empty()) return fail("no sites");
  if (vars == 0) return fail("missing 'vars'");
  if (replicas_per_var == 0) return fail("replicas must be positive");
  for (const auto& [x, sites_of_x] : placement_overrides) {
    if (x >= vars) {
      return fail("place: var " + std::to_string(x) + " out of range");
    }
    if (sites_of_x.empty()) {
      return fail("place: var " + std::to_string(x) + " has no sites");
    }
    for (std::size_t i = 0; i < sites_of_x.size(); ++i) {
      if (sites_of_x[i] >= site_count()) {
        return fail("place: site " + std::to_string(sites_of_x[i]) +
                    " out of range");
      }
      for (std::size_t j = 0; j < i; ++j) {
        if (sites_of_x[j] == sites_of_x[i]) {
          return fail("place: var " + std::to_string(x) +
                      " lists site " + std::to_string(sites_of_x[i]) +
                      " twice");
        }
      }
    }
  }
  for (const auto& [x, name] : key_names) {
    if (x >= vars) {
      return fail("key: var " + std::to_string(x) + " out of range");
    }
    (void)name;
  }
  if (placement == PlacementPolicy::kRegion && topology.empty()) {
    return fail("placement region requires declared regions");
  }
  if (protocol.engine_shards == 0 || protocol.engine_shards > 256) {
    return fail("engine-shards must be in 1..256");
  }
  if (placement_seed != 0 && placement != PlacementPolicy::kHash) {
    return fail("placement seed is for 'hash' only");
  }
  std::string terr;
  if (!topology.validate(site_count(), &terr)) return fail(std::move(terr));
  return true;
}

std::optional<ClusterConfig> ClusterConfig::load(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return parse(ss.str(), error);
}

std::string ClusterConfig::to_text() const {
  std::ostringstream out;
  out << "algorithm " << causal::algorithm_token(algorithm) << "\n";
  out << "vars " << vars << "\n";
  out << "replicas " << replicas_per_var << "\n";
  if (placement != PlacementPolicy::kRing || placement_seed != 0) {
    out << "placement " << placement_token(placement);
    if (placement_seed != 0) out << ' ' << placement_seed;
    out << "\n";
  }
  for (std::size_t r = 0; r < topology.region_names.size(); ++r) {
    out << "region " << topology.region_names[r] << ' '
        << format_duration_us(topology.intra_us[r]) << "\n";
  }
  for (const auto& link : topology.links) {
    out << "link " << topology.region_names[link.a] << ' '
        << topology.region_names[link.b] << ' '
        << format_duration_us(link.us) << "\n";
  }
  for (std::size_t id = 0; id < sites.size(); ++id) {
    out << "site " << id << ' ' << sites[id].host << ' '
        << sites[id].peer_port << ' ' << sites[id].client_port;
    if (id < topology.region_of_site.size()) {
      out << ' ' << topology.region_names[topology.region_of_site[id]];
    }
    out << "\n";
  }
  for (const auto& [x, sites_of_x] : placement_overrides) {
    out << "place " << x << ' ';
    for (std::size_t i = 0; i < sites_of_x.size(); ++i) {
      if (i > 0) out << ',';
      out << sites_of_x[i];
    }
    out << "\n";
  }
  for (const auto& [x, name] : key_names) {
    out << "key " << x << ' ' << name << "\n";
  }
  if (protocol.convergent) out << "convergent true\n";
  if (!protocol.fetch_gating) out << "no-gating true\n";
  if (protocol.fetch_timeout_us > 0) {
    out << "fetch-timeout-us " << protocol.fetch_timeout_us << "\n";
  }
  if (sender_batch_bytes > 0) {
    out << "sender-batch-bytes " << sender_batch_bytes << "\n";
  }
  if (peer_queue_cap > 0) out << "peer-queue-cap " << peer_queue_cap << "\n";
  if (engine_queue_cap > 0) {
    out << "engine-queue-cap " << engine_queue_cap << "\n";
  }
  if (protocol.engine_shards > 1) {
    out << "engine-shards " << protocol.engine_shards << "\n";
  }
  if (catchup_interval_ms > 0) {
    out << "catchup-interval-ms " << catchup_interval_ms << "\n";
  }
  if (catchup_timeout_ms > 0) {
    out << "catchup-timeout-ms " << catchup_timeout_ms << "\n";
  }
  if (checkpoint_every > 0) {
    out << "checkpoint-every " << checkpoint_every << "\n";
  }
  if (protocol.store_engine.kind != store::EngineKind::kMap) {
    out << "store-engine "
        << store::engine_kind_token(protocol.store_engine.kind) << "\n";
  }
  if (protocol.store_engine.shards != store::EngineOptions{}.shards) {
    out << "store-shards " << protocol.store_engine.shards << "\n";
  }
  if (protocol.store_engine.inline_max != store::EngineOptions{}.inline_max) {
    out << "store-inline-max " << protocol.store_engine.inline_max << "\n";
  }
  if (protocol.store_engine.spill_budget_bytes > 0) {
    out << "store-spill-budget-bytes "
        << protocol.store_engine.spill_budget_bytes << "\n";
  }
  if (heartbeat_interval_us > 0) {
    out << "heartbeat-interval " << format_duration_us(heartbeat_interval_us)
        << "\n";
  }
  if (suspect_after_us > 0) {
    out << "suspect-after " << format_duration_us(suspect_after_us) << "\n";
  }
  return out.str();
}

bool parse_duration_token(const std::string& tok, std::uint32_t* out) {
  return parse_duration_us(tok, out);
}

ClusterConfig ClusterConfig::loopback(std::uint32_t n, std::uint32_t q,
                                      std::uint32_t p,
                                      std::uint16_t base_port) {
  CCPR_EXPECTS(n > 0 && q > 0 && p > 0);
  ClusterConfig cfg;
  cfg.vars = q;
  cfg.replicas_per_var = p;
  cfg.sites.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    cfg.sites[s].host = "127.0.0.1";
    cfg.sites[s].peer_port =
        base_port == 0 ? 0 : static_cast<std::uint16_t>(base_port + s);
    cfg.sites[s].client_port =
        base_port == 0 ? 0 : static_cast<std::uint16_t>(base_port + n + s);
  }
  return cfg;
}

}  // namespace ccpr::server
