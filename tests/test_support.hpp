// Shared helpers for protocol and integration tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "causal/sim_cluster.hpp"
#include "checker/causal_checker.hpp"
#include "sim/latency.hpp"

namespace ccpr::testing {

/// Cluster options with a fixed one-way delay on every channel.
inline causal::SimCluster::Options constant_latency(sim::SimTime us) {
  causal::SimCluster::Options o;
  o.latency = std::make_unique<sim::ConstantLatency>(us);
  return o;
}

/// Cluster options with an explicit n x n one-way delay matrix (row-major,
/// no jitter) — the tool for deterministic message-race scenarios.
inline causal::SimCluster::Options matrix_latency(
    std::uint32_t n, std::vector<sim::SimTime> base_us) {
  causal::SimCluster::Options o;
  o.latency = std::make_unique<sim::GeoLatency>(n, std::move(base_us), 0.0);
  return o;
}

/// Asserts the recorded history is causally consistent.
inline void expect_causal(const causal::SimCluster& cluster,
                          bool require_complete = true) {
  checker::CheckOptions opts;
  opts.require_complete_delivery = require_complete;
  const auto result = checker::check_causal_consistency(
      cluster.history(), cluster.replica_map(), opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

/// The sequence of writes applied at `site`, in apply order.
inline std::vector<causal::WriteId> applies_at(
    const checker::HistoryRecorder& history, causal::SiteId site) {
  std::vector<causal::WriteId> out;
  for (const auto& a : history.applies()) {
    if (a.site == site) out.push_back(a.write);
  }
  return out;
}

/// Rebuild site `s` of `cluster` in a fresh protocol of algorithm `alg`:
/// serialize_state on the site, restore_state into the new instance.
/// `metrics` must outlive the returned protocol.
inline std::unique_ptr<causal::IProtocol> restored_copy(
    const causal::SimCluster& cluster, causal::Algorithm alg,
    causal::SiteId s, const causal::ProtocolOptions& opts,
    metrics::Metrics* metrics) {
  net::Encoder enc;
  cluster.site(s).serialize_state(enc);
  causal::Services svc;
  svc.send = [](net::Message) {};
  svc.now = [] { return sim::SimTime{0}; };
  svc.metrics = metrics;
  auto copy = causal::make_protocol(alg, s, cluster.replica_map(),
                                    std::move(svc), opts);
  net::Decoder dec(enc.buffer());
  EXPECT_TRUE(copy->restore_state(dec));
  return copy;
}

/// Index of `id` in `seq`, or -1.
inline std::ptrdiff_t index_of(const std::vector<causal::WriteId>& seq,
                               causal::WriteId id) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i] == id) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace ccpr::testing
