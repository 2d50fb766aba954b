// Chaos injection, failure detection and client failover on the TCP
// runtime, all in-process so each scenario stays fast and inspectable:
//
//   * a partitioned link keeps queueing (drop-oldest at the cap) and the
//     anti-entropy catch-up recovers the dropped updates after heal;
//   * heartbeat suspicion surfaces in kStatus, in the Prometheus scrape,
//     and in fetch-target ranking (suspected replicas skipped first);
//   * reads whose every replica is suspected fail fast with kUnavailable
//     instead of burning the fetch timeout;
//   * the client retry loop transparently fails the session over to the
//     next-nearest site, carrying its causal past via coverage tokens;
//   * retried puts are idempotent: the server replays the stored result
//     for a repeated (session, request-id) pair.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "net/chaos.hpp"
#include "net/socket.hpp"
#include "server/client_protocol.hpp"
#include "server/cluster_config.hpp"
#include "server/site_server.hpp"
#include "tcp_test_support.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;

using testing::eventually;
using testing::LocalCluster;
using testing::loopback_config;
using testing::metric_value;

TEST(ChaosFailoverTest, PartitionOverflowsQueueAndCatchupConverges) {
  auto cfg = loopback_config(2, 4, 2);
  cfg.peer_queue_cap = 32;  // small, so the partition overflows quickly
  cfg.catchup_interval_ms = 100;
  LocalCluster cluster(std::move(cfg));

  // Blackhole site 0's link toward site 1. Outbound updates keep queueing
  // (drop-oldest at the cap) instead of vanishing at enqueue.
  net::ChaosRule rule;
  rule.partition = true;
  cluster.servers[0]->set_chaos(1, rule);

  client::Client writer(cluster.cfg, 0);
  for (int i = 1; i <= 150; ++i) {
    writer.put(0, "v" + std::to_string(i));
  }

  // The cap is 32, so >100 queued updates must have overflowed.
  const auto stats = cluster.servers[0]->peer_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].site, 1u);
  EXPECT_TRUE(stats[0].chaos_partitioned);
  EXPECT_GT(stats[0].overflow_drops, 0u);
  EXPECT_GE(stats[0].queued, 1u);

  // The scrape shows the active rule (2 = partition) alongside the drops.
  const auto text = writer.metrics_text();
  EXPECT_EQ(
      metric_value(text, "ccpr_peer_chaos_active{site=\"0\",peer=\"1\"}"),
      2.0);
  EXPECT_GT(
      metric_value(text,
                   "ccpr_peer_overflow_drops_total{site=\"0\",peer=\"1\"}"),
      0.0);

  // Heal. Catch-up detects the channel gap and resends from the retained
  // window, so site 1 still converges to the newest value.
  cluster.servers[0]->clear_chaos();
  client::Client reader(cluster.cfg, 1);
  EXPECT_TRUE(eventually(
      [&] { return reader.get(0).data == "v150"; }, 15'000ms))
      << "site 1 never caught up; last=" << reader.get(0).data;
  // The overflow-dropped updates were resent by anti-entropy, not merely
  // replayed from the surviving queue tail.
  EXPECT_TRUE(eventually(
      [&] {
        return metric_value(writer.metrics_text(),
                            "ccpr_catchup_resent_total{site=\"0\"}") > 0.0;
      },
      10'000ms))
      << "site 0 never resent the dropped updates";
}

TEST(ChaosFailoverTest, SuspicionRoutesFetchesAndFastFailsReads) {
  auto cfg = loopback_config(3, 6, 2);
  cfg.heartbeat_interval_us = 50'000;   // 50ms pings
  cfg.suspect_after_us = 300'000;       // suspect after 300ms of silence
  cfg.protocol.fetch_timeout_us = 200'000;
  LocalCluster cluster(std::move(cfg));

  // Ring placement: var 1 lives at {1, 2}; site 0 must fetch it remotely.
  ASSERT_FALSE(cluster.servers[0]->replica_map().replicated_at(1, 0));
  ASSERT_TRUE(cluster.servers[0]->replica_map().replicated_at(1, 1));
  ASSERT_TRUE(cluster.servers[0]->replica_map().replicated_at(1, 2));

  client::Client writer(cluster.cfg, 1);
  writer.put(1, "payload");

  client::Client cli(cluster.cfg, 0);
  // Warm-up: remote fetch with everything healthy.
  EXPECT_TRUE(eventually(
      [&] { return cli.get(1).data == "payload"; }, 5'000ms));

  // Partition site 0 from site 1 only: heartbeats stop both ways (0 parks
  // its pings, discards 1's), so 0 suspects 1.
  net::ChaosRule rule;
  rule.partition = true;
  cluster.servers[0]->set_chaos(1, rule);
  ASSERT_TRUE(eventually(
      [&] {
        const auto st = cli.status();
        return st.suspected_peers == std::vector<causal::SiteId>{1};
      },
      5'000ms))
      << "site 0 never suspected site 1";

  // Fetch routing now skips the suspected replica: reads of var 1 come
  // from site 2 and still succeed.
  EXPECT_EQ(cli.get(1).data, "payload");
  const auto text = cli.metrics_text();
  // The per-peer gauge for site 1 must read 1 and the skip counter must
  // have advanced past zero.
  EXPECT_EQ(metric_value(text, "ccpr_peer_suspected{site=\"0\",peer=\"1\"}"),
            1.0);
  EXPECT_GT(metric_value(text, "ccpr_fetch_suspect_skips_total{site=\"0\"}"),
            0.0);

  // Now blackhole every peer: all replicas of var 1 are suspected, so the
  // read fails fast with kUnavailable instead of waiting out the fetch.
  cluster.servers[0]->set_chaos(2, rule);
  ASSERT_TRUE(eventually(
      [&] { return cli.status().suspected_peers.size() == 2; }, 5'000ms));
  client::Client::Options no_retry;
  no_retry.retry.enabled = false;
  client::Client bare(cluster.cfg, 0, no_retry);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)bare.get(1);
    FAIL() << "read should have failed fast";
  } catch (const client::Error& e) {
    EXPECT_EQ(e.kind(), client::ErrorKind::kServer);
    EXPECT_TRUE(e.retryable());
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 2s) << "fast-fail path did not engage";
  EXPECT_GT(metric_value(cli.metrics_text(),
                         "ccpr_reads_fast_failed_total{site=\"0\"}"),
            0.0);

  // Heal: acks resume, suspicion clears, reads work everywhere again.
  cluster.servers[0]->clear_chaos();
  EXPECT_TRUE(eventually(
      [&] { return cli.status().suspected_peers.empty(); }, 5'000ms));
  EXPECT_EQ(cli.get(1).data, "payload");
}

TEST(ChaosFailoverTest, ClientFailsOverWhenItsSiteDies) {
  auto cfg = loopback_config(3, 6, 3);
  LocalCluster cluster(std::move(cfg));

  client::Client::Options fopts;
  fopts.retry.enabled = true;
  fopts.retry.failover = true;
  fopts.retry.op_deadline = 8s;
  fopts.connect_timeout = 500ms;
  client::Client cli(cluster.cfg, 0, fopts);

  // Ops at the home site; responses piggyback coverage tokens for the
  // other sites (the failover luggage).
  cli.put(0, "before-crash");
  EXPECT_EQ(cli.get(0).data, "before-crash");

  // A session without failover watches the same crash fail fast instead:
  // typed, retryable, and well before the deadline.
  client::Client::Options plain;
  plain.retry.enabled = true;
  plain.retry.failover = false;
  plain.retry.max_attempts = 2;
  plain.retry.op_deadline = 2s;
  plain.connect_timeout = 200ms;
  client::Client pinned(cluster.cfg, 0, plain);
  pinned.ping();

  // Let propagation drain, then kill the home site.
  std::this_thread::sleep_for(200ms);
  cluster.servers[0]->stop();
  cluster.servers[0].reset();

  // The failover client transparently moves to another site and keeps its
  // session: read-your-writes survives because the new site must cover
  // the cached token before serving.
  EXPECT_EQ(cli.get(0).data, "before-crash");
  EXPECT_NE(cli.site(), 0u);
  EXPECT_GE(cli.failovers(), 1u);
  cli.put(0, "after-crash");
  EXPECT_EQ(cli.get(0).data, "after-crash");

  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)pinned.get(0);
    FAIL() << "pinned client should not survive its site";
  } catch (const client::Error& e) {
    EXPECT_TRUE(e.kind() == client::ErrorKind::kConnect ||
                e.kind() == client::ErrorKind::kTimeout)
        << e.kind_name();
    EXPECT_TRUE(e.retryable());
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 6s);

  // A brand-new failover session whose preferred site is already dead
  // starts at the next nearest site instead of failing to construct.
  client::Client fresh(cluster.cfg, 0, fopts);
  EXPECT_NE(fresh.site(), 0u);
  EXPECT_GE(fresh.failovers(), 1u);
  EXPECT_EQ(fresh.get(0).data, "after-crash");
}

TEST(ChaosFailoverTest, PutWithRepeatedRequestIdReplaysStoredResult) {
  auto cfg = loopback_config(1, 2, 1);
  LocalCluster cluster(std::move(cfg));

  net::Socket sock =
      net::tcp_dial("127.0.0.1", cluster.cfg.sites[0].client_port);
  ASSERT_TRUE(sock.valid());

  const auto put_once = [&](std::uint64_t session, std::uint64_t req_id,
                            const std::string& value) {
    net::Encoder req;
    req.u8(static_cast<std::uint8_t>(server::ClientOp::kPut));
    req.varint(0);  // var
    req.bytes(value);
    req.u8(server::kReqHasRequestId);
    req.varint(session);
    req.varint(req_id);
    EXPECT_TRUE(server::write_client_frame(sock.fd(), req.buffer()));
    auto resp =
        server::read_client_frame(sock.fd(), net::kDefaultMaxFrameBytes);
    EXPECT_TRUE(resp.has_value());
    return std::move(*resp);
  };

  struct Decoded {
    std::uint64_t writer, seq;
    std::uint8_t flags;
  };
  const auto decode = [](const std::vector<std::uint8_t>& resp) {
    net::Decoder dec(resp);
    EXPECT_EQ(dec.u8(), 0);  // kOk
    Decoded d{};
    d.writer = dec.varint();
    d.seq = dec.varint();
    (void)dec.varint();  // lamport
    d.flags = dec.u8();
    EXPECT_TRUE(dec.ok());
    return d;
  };

  // The same (session, request-id) pair executed once, replayed once.
  const auto first = decode(put_once(77, 9, "the-value"));
  EXPECT_EQ(first.flags & server::kRespDupReplay, 0);
  const auto replay = decode(put_once(77, 9, "the-value"));
  EXPECT_NE(replay.flags & server::kRespDupReplay, 0);
  EXPECT_EQ(replay.writer, first.writer);
  EXPECT_EQ(replay.seq, first.seq);

  // A fresh request id from the same session executes for real again.
  const auto next = decode(put_once(77, 10, "the-value-2"));
  EXPECT_EQ(next.flags & server::kRespDupReplay, 0);
  EXPECT_EQ(next.seq, first.seq + 1);

  client::Client check(cluster.cfg, 0);
  EXPECT_EQ(check.get(0).data, "the-value-2");
}

}  // namespace
}  // namespace ccpr
