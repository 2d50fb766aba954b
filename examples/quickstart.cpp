// Quickstart: a 3-site geo-replicated causal KV store with partial
// replication — three in-process SiteServers on loopback TCP, exercised
// through client::Client sessions.
//
//   build/examples/quickstart
//
// Alice posts from site 0; Bob reads her wall from site 1 and comments;
// causal consistency guarantees nobody can see Bob's comment without being
// able to see the photo it refers to. Every session records its operations,
// and the offline checker verifies the whole run at the end; the exit code
// is non-zero if it finds a violation.
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "net/socket.hpp"
#include "server/site_server.hpp"

using namespace ccpr;

namespace {

/// Re-read `key` until it holds `want` (a client refreshing a page), up to
/// a few seconds; returns the last value read.
std::string read_until(client::Client& session, const std::string& key,
                       const std::string& want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::string got = session.get_key(key);
  while (got != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    got = session.get_key(key);
  }
  return got;
}

}  // namespace

int main() {
  // Three sites (think: Chicago, Oregon, Frankfurt) and three keys, each
  // replicated at two of the three sites: alice:wall at {0, 1}, bob:wall at
  // {1, 2}, carol:wall at {2, 0}.
  auto cfg = server::ClusterConfig::loopback(/*sites=*/3, /*vars=*/3,
                                             /*replicas=*/2, /*base_port=*/0);
  cfg.algorithm = causal::Algorithm::kOptTrack;  // the paper's headline
  cfg.key_names = {{0, "alice:wall"}, {1, "bob:wall"}, {2, "carol:wall"}};
  {
    // Kernel-assigned free ports, released just before the servers bind.
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
      std::cerr << "site " << s << " failed to bind\n";
      return 1;
    }
  }

  checker::HistoryRecorder history;
  client::Client::Options recorded;
  recorded.recorder = &history;
  {
    client::Client alice(cfg, 0, recorded);
    client::Client bob(cfg, 1, recorded);
    client::Client carol(cfg, 2, recorded);

    const std::string photo = "photo: sunset over the lake";
    alice.put_key("alice:wall", photo);

    // Replication is asynchronous: Bob refreshes until the photo arrives.
    std::cout << "bob sees: " << read_until(bob, "alice:wall", photo) << "\n";
    const std::string reply = "re alice: great shot!";
    bob.put_key("bob:wall", reply);

    // Carol reads Bob's comment, then Alice's wall (a remote fetch: site 2
    // holds no copy): causal consistency means the photo must be visible
    // once the comment is.
    const std::string comment = read_until(carol, "bob:wall", reply);
    const std::string wall = carol.get_key("alice:wall");
    std::cout << "carol sees: '" << comment << "' and '" << wall << "'\n";
  }

  // Clients record operations, not replica applies, so the checker audits
  // read legality and read integrity, not delivery completeness.
  checker::CheckOptions opts;
  opts.require_complete_delivery = false;
  const auto result =
      checker::check_causal_consistency(history, cfg.replica_map(), opts);
  std::cout << "causal consistency check: "
            << (result.ok ? "OK" : "VIOLATED") << " (" << result.ops_checked
            << " ops)\n";
  for (const auto& v : result.violations) std::cout << "  " << v << "\n";

  metrics::Metrics m;
  for (auto& srv : servers) {
    srv->stop();
    m.merge(srv->metrics());
  }
  std::cout << "traffic: " << m.messages_total() << " messages, "
            << m.control_bytes << " control bytes, " << m.payload_bytes
            << " payload bytes\n";
  return result.ok ? 0 : 1;
}
