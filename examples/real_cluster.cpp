// Real-network runtime in one process: three SiteServers on loopback TCP,
// driven through client::Client sessions, and the per-site metrics
// afterwards. The same wiring works across machines — give each site its
// real host in the config and run one ccpr_server per box.
//
//   build/examples/real_cluster [ops_per_session]
//
// 1. Device roaming: one user's session writes from the phone (site 0),
//    migrates to the laptop (site 2) and back. Migration blocks until the
//    new site covers the session's causal past, so read-your-writes holds
//    across the hops even though the two devices talk to different sites.
// 2. Concurrent sessions: one recorded client thread per site hammers the
//    shared keys; the offline causal checker audits the history, then a
//    convergence audit compares the replicas of every key.
//
// Exits non-zero if the checker finds a violation or a session guarantee
// breaks across a migration.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/convergence.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "net/socket.hpp"
#include "server/site_server.hpp"
#include "util/rng.hpp"

using namespace ccpr;

namespace {

/// Block until every update issued so far is applied at every replica: a
/// fresh session at each site migrates to every other site, and each
/// migration waits until the target covers the source's causal past.
void drain(const server::ClusterConfig& cfg) {
  for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
    for (causal::SiteId t = 0; t < cfg.site_count(); ++t) {
      if (t != s) client::Client(cfg, s).migrate(t);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int ops = argc > 1 ? std::atoi(argv[1]) : 80;

  // Three sites, nine vars, each var on two sites (partial replication):
  // var x lives at sites {x mod 3, x+1 mod 3}.
  auto cfg = server::ClusterConfig::loopback(3, 9, 2, 0);
  cfg.algorithm = causal::Algorithm::kOptTrack;
  cfg.protocol.fetch_timeout_us = 200000;
  cfg.key_names = {{0, "user:drafts"}, {1, "user:settings"}};

  // Port 0 would be kernel-assigned, but the other servers and the clients
  // must know every port up front: grab free ports first, release them,
  // and let the servers bind them. Real deployments use fixed ports.
  {
    std::vector<net::Socket> held;
    for (auto& site : cfg.sites) {
      held.push_back(net::tcp_listen("127.0.0.1", 0, &site.peer_port));
      held.push_back(net::tcp_listen("127.0.0.1", 0, &site.client_port));
    }
  }

  std::vector<std::unique_ptr<server::SiteServer>> servers;
  for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
    servers.push_back(std::make_unique<server::SiteServer>(cfg, s));
    if (!servers.back()->start()) {
      std::fprintf(stderr, "site %u failed to bind\n", s);
      return 1;
    }
    std::printf("site %u up: peer port %u, client port %u\n", s,
                servers[s]->peer_port(), servers[s]->client_port());
  }

  // ---- 1. device roaming ----
  bool sessions_ok = true;
  {
    client::Client session(cfg, 0);  // phone
    const std::string draft = "Dear team, shipping Friday...";
    session.put_key("user:drafts", draft);
    session.put_key("user:settings", "theme=dark");
    std::printf("[phone  @site0] wrote a draft and a setting\n");

    session.migrate(2);  // the user opens the laptop
    const std::string seen_draft = session.get_key("user:drafts");
    const std::string seen_theme = session.get_key("user:settings");
    // user:drafts lives at {0, 1}: site 2 reads it by remote fetch.
    std::printf("[laptop @site2] draft = \"%s\" (via remote fetch)\n",
                seen_draft.c_str());
    std::printf("[laptop @site2] setting = \"%s\"\n", seen_theme.c_str());
    sessions_ok = seen_draft == draft && seen_theme == "theme=dark";

    // Edit on the laptop, hop back to the phone.
    const std::string edit = "Dear team, shipping TODAY!";
    session.put_key("user:drafts", edit);
    session.migrate(0);
    const std::string back = session.get_key("user:drafts");
    std::printf("[phone  @site0] after migrating back, draft = \"%s\"\n",
                back.c_str());
    sessions_ok = sessions_ok && back == edit;
  }

  // ---- 2. concurrent sessions, checker, convergence audit ----
  // Vars 2..8 only, so every read of the recorded history names a write
  // the recording holds.
  checker::HistoryRecorder history;
  {
    std::vector<std::thread> clients;
    for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
      clients.emplace_back([&cfg, &history, s, ops] {
        client::Client::Options recorded;
        recorded.recorder = &history;
        client::Client session(cfg, s, recorded);
        util::Rng rng(9000 + s);
        for (int i = 0; i < ops; ++i) {
          const auto x = static_cast<causal::VarId>(2 + rng.below(7));
          if (rng.chance(0.35)) {
            session.put(x, "site" + std::to_string(s) + " op" +
                               std::to_string(i));
          } else {
            (void)session.get(x);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  drain(cfg);

  checker::CheckOptions check_opts;
  check_opts.require_complete_delivery = false;  // clients record no applies
  const auto check = checker::check_causal_consistency(
      history, cfg.replica_map(), check_opts);
  std::printf("%zu concurrent ops across %u client threads: causal "
              "consistency %s\n",
              check.ops_checked, cfg.site_count(),
              check.ok ? "OK" : "VIOLATED");
  for (const auto& v : check.violations) std::printf("  %s\n", v.c_str());

  std::vector<std::unique_ptr<client::Client>> peekers;
  for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
    peekers.push_back(std::make_unique<client::Client>(cfg, s));
  }
  const auto conv = checker::audit_convergence(
      cfg.replica_map(), [&](causal::SiteId s, causal::VarId x) {
        return peekers[s]->get(x);
      });
  std::printf("replica convergence: %zu/%zu keys divergent (concurrent "
              "writes; plain causal memory does not force agreement, "
              "see DESIGN.md section 6 on causal+)\n",
              conv.divergent_vars, conv.vars_checked);
  std::printf("session guarantees across devices: %s\n",
              sessions_ok ? "held" : "BROKEN");
  peekers.clear();

  for (auto& srv : servers) {
    const auto m = srv->metrics();
    std::printf("site %u: writes=%llu reads=%llu msgs=%llu bytes=%llu\n",
                srv->self(), static_cast<unsigned long long>(m.writes),
                static_cast<unsigned long long>(m.reads),
                static_cast<unsigned long long>(m.messages_total()),
                static_cast<unsigned long long>(m.bytes_total()));
    srv->stop();
  }
  return (check.ok && sessions_ok) ? 0 : 1;
}
