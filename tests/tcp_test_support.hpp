// Shared helpers for tests that run the TCP runtime on loopback: free-port
// selection, a loopback ClusterConfig builder, an in-process cluster that
// starts every site and stops it on scope exit, a polling wait, a
// cluster-wide drain, and the causal check of a client-recorded history.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "net/socket.hpp"
#include "server/cluster_config.hpp"
#include "server/site_server.hpp"

namespace ccpr::testing {

/// Reserve n distinct loopback ports by briefly binding port 0. The sockets
/// are closed before use; SO_REUSEADDR makes the rebind reliable in practice.
inline std::vector<std::uint16_t> pick_ports(std::size_t n) {
  std::vector<net::Socket> held;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t port = 0;
    held.push_back(net::tcp_listen("127.0.0.1", 0, &port));
    EXPECT_TRUE(held.back().valid());
    ports.push_back(port);
  }
  return ports;  // listeners close here
}

/// Give every site of `cfg` a kernel-assigned peer and client port, so
/// parallel ctest runs cannot collide.
inline void assign_free_ports(server::ClusterConfig& cfg) {
  const std::uint32_t n = cfg.site_count();
  const auto ports = pick_ports(2 * n);
  for (std::uint32_t s = 0; s < n; ++s) {
    cfg.sites[s].peer_port = ports[s];
    cfg.sites[s].client_port = ports[n + s];
  }
}

/// An n-site loopback cluster (q vars, p replicas each, ring placement) on
/// free ports.
inline server::ClusterConfig loopback_config(std::uint32_t n,
                                             std::uint32_t q,
                                             std::uint32_t p) {
  auto cfg = server::ClusterConfig::loopback(n, q, p, 0);
  assign_free_ports(cfg);
  return cfg;
}

/// Every site of `cfg` as an in-process SiteServer, started on
/// construction and stopped on destruction. A site that fails to bind is
/// reported as a test failure; check started() before driving the cluster.
class LocalCluster {
 public:
  explicit LocalCluster(server::ClusterConfig config)
      : cfg(std::move(config)) {
    for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
      servers.push_back(std::make_unique<server::SiteServer>(cfg, s));
      if (!servers.back()->start()) {
        ADD_FAILURE() << "site " << s << " failed to bind";
        started_ = false;
      }
    }
  }
  ~LocalCluster() { stop(); }

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  bool started() const noexcept { return started_; }
  /// Stop every site still present. SiteServer::stop is idempotent, so the
  /// destructor's pass after an explicit stop() is a no-op; a test may
  /// also reset() one server early to take its site down.
  void stop() {
    for (auto& srv : servers) {
      if (srv) srv->stop();
    }
  }

  server::ClusterConfig cfg;
  std::vector<std::unique_ptr<server::SiteServer>> servers;

 private:
  bool started_ = true;
};

/// Poll until `pred` holds or `budget` elapses; the final verdict is one
/// more evaluation after the deadline.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget,
                std::chrono::milliseconds poll =
                    std::chrono::milliseconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(poll);
  }
  return pred();
}

/// Value of the sample whose line starts with `series` ("name{labels}"),
/// or -1 when the series is absent from the exposition text.
inline double metric_value(const std::string& text,
                           const std::string& series) {
  const auto pos = text.find(series + " ");
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + series.size() + 1));
}

/// Block until every update issued so far is applied at every replica: for
/// each ordered site pair (s, t), a fresh session at s migrates to t, and
/// the migration's coverage handshake waits until t has applied everything
/// in s's causal past destined to t.
inline void drain(const server::ClusterConfig& cfg) {
  for (causal::SiteId s = 0; s < cfg.site_count(); ++s) {
    for (causal::SiteId t = 0; t < cfg.site_count(); ++t) {
      if (t == s) continue;
      client::Client probe(cfg, s);
      probe.migrate(t);
    }
  }
}

/// Asserts a history recorded by client::Client sessions is causally
/// consistent. Clients record operations, not applies, so delivery
/// completeness is out of scope; read legality and read integrity are
/// fully checked.
inline void expect_causal(const checker::HistoryRecorder& history,
                          const causal::ReplicaMap& rmap) {
  checker::CheckOptions opts;
  opts.require_complete_delivery = false;
  const auto result = checker::check_causal_consistency(history, rmap, opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
  EXPECT_GT(result.ops_checked, 0u);
}

}  // namespace ccpr::testing
