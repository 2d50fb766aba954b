// Unit tests for the single-writer ProtocolEngine: concurrent producers,
// bounded-queue backpressure, parked covered_by waiters fulfilled by later
// applies, stop() aborting blocked reads, and queue accounting. The tests
// drive the async API through util::block_on, as blocking callers do.
#include "server/protocol_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "causal/factory.hpp"
#include "causal/replica_map.hpp"
#include "metrics/metrics.hpp"
#include "util/block_on.hpp"

namespace ccpr::server {
namespace {

using namespace std::chrono_literals;

/// Captures a protocol's outbound messages so a test can deliver them to a
/// peer engine when (and if) it chooses.
class MessageTrap {
 public:
  causal::Services services(metrics::Metrics* sink) {
    causal::Services svc;
    svc.send = [this](net::Message m) {
      std::lock_guard lk(mu_);
      captured_.push_back(std::move(m));
    };
    svc.now = [] { return sim::SimTime{0}; };
    svc.metrics = sink;
    return svc;
  }

  std::vector<net::Message> drain() {
    std::lock_guard lk(mu_);
    return std::move(captured_);
  }

 private:
  std::mutex mu_;
  std::vector<net::Message> captured_;
};

// Blocking views of the async API, one per command the tests issue.

std::optional<ProtocolEngine::WriteResult> write(ProtocolEngine& e,
                                                 causal::VarId x,
                                                 std::string data) {
  return util::block_on<ProtocolEngine::WriteResult>(
      [&](ProtocolEngine::WriteCb cb) {
        e.async_write(x, std::move(data), /*local_replica=*/true,
                      std::move(cb));
      });
}

std::optional<causal::Value> read(ProtocolEngine& e, causal::VarId x) {
  return util::block_on<causal::Value>(
      [&](ProtocolEngine::ReadCb cb) { e.async_read(x, std::move(cb)); });
}

std::optional<std::vector<causal::Value>> snapshot(
    ProtocolEngine& e, std::vector<causal::VarId> xs) {
  return util::block_on<std::vector<causal::Value>>(
      [&](ProtocolEngine::SnapshotCb cb) {
        e.async_snapshot(std::move(xs), std::move(cb));
      });
}

std::optional<std::vector<std::uint8_t>> coverage_token(
    ProtocolEngine& e, causal::SiteId target) {
  return util::block_on<std::vector<std::uint8_t>>(
      [&](ProtocolEngine::TokenCb cb) { e.async_token(target, std::move(cb)); });
}

std::optional<bool> wait_covered(ProtocolEngine& e,
                                 std::vector<std::uint8_t> token,
                                 std::uint64_t wait_us) {
  return util::block_on<bool>([&](ProtocolEngine::CoveredCb cb) {
    e.async_covered(std::move(token), wait_us, std::move(cb));
  });
}

std::optional<ProtocolEngine::Report> report(ProtocolEngine& e) {
  return util::block_on<ProtocolEngine::Report>(
      [&](ProtocolEngine::ReportCb cb) { e.async_report(std::move(cb)); });
}

/// One engine wrapping a protocol instance for site `self` of `rmap`.
struct EngineSite {
  EngineSite(causal::SiteId self, const causal::ReplicaMap& rmap,
             std::size_t queue_capacity = 1024) {
    ProtocolEngine::Options opts;
    opts.queue_capacity = queue_capacity;
    engine = std::make_unique<ProtocolEngine>(opts);
    engine->adopt_protocol(
        causal::make_protocol(causal::Algorithm::kOptTrack, self, rmap,
                              trap.services(&metrics)),
        &metrics);
    engine->start();
  }

  MessageTrap trap;
  metrics::Metrics metrics;
  std::unique_ptr<ProtocolEngine> engine;
};

TEST(ProtocolEngineTest, WritesAndReadsFromManyThreads) {
  const auto rmap = causal::ReplicaMap::full(1, 4);
  EngineSite site(0, rmap);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto x =
            static_cast<causal::VarId>(t + i) % rmap.vars();
        if (i % 2 == 0) {
          const auto r = write(*site.engine, x, "v");
          if (!r || r->id.seq == 0) failures.fetch_add(1);
        } else {
          if (!read(*site.engine, x)) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const auto st = report(*site.engine);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->protocol.writes, kThreads * kOpsPerThread / 2u);
  EXPECT_EQ(st->protocol.reads, kThreads * kOpsPerThread / 2u);
}

TEST(ProtocolEngineTest, WriteIdsAreSequentialUnderConcurrency) {
  const auto rmap = causal::ReplicaMap::full(1, 1);
  EngineSite site(0, rmap);

  constexpr int kThreads = 4;
  constexpr int kWrites = 100;
  std::mutex mu;
  std::vector<std::uint64_t> seqs;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kWrites; ++i) {
        const auto r = write(*site.engine, 0, "v");
        ASSERT_TRUE(r.has_value());
        std::lock_guard lk(mu);
        seqs.push_back(r->id.seq);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every writer saw the id of *its own* write: all seqs distinct, and they
  // form exactly 1..N. A torn read under the old mutex-free race would
  // duplicate or skip.
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
}

TEST(ProtocolEngineTest, SnapshotIsOneApplySlot) {
  const auto rmap = causal::ReplicaMap::full(1, 3);
  EngineSite site(0, rmap);
  ASSERT_TRUE(write(*site.engine, 0, "a").has_value());
  ASSERT_TRUE(write(*site.engine, 1, "b").has_value());
  const auto values = snapshot(*site.engine, {0, 1, 2});
  ASSERT_TRUE(values.has_value());
  ASSERT_EQ(values->size(), 3u);
  EXPECT_EQ((*values)[0].data, "a");
  EXPECT_EQ((*values)[1].data, "b");
  EXPECT_TRUE((*values)[2].id.is_initial());
}

// Client ops enqueue unbounded; the bound holds the peer-side producers.
// Timer posts are one of them.
TEST(ProtocolEngineTest, BoundedQueueBlocksProducersAndCountsWaits) {
  const auto rmap = causal::ReplicaMap::full(1, 2);
  EngineSite site(0, rmap, /*queue_capacity=*/2);

  // Stall the apply thread on a command so the queue can fill behind it.
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool open = false;
  site.engine->post_timer([&] {
    std::unique_lock lk(gate_mu);
    gate_cv.wait(lk, [&] { return open; });
  });

  constexpr int kProducers = 6;
  std::vector<std::thread> producers;
  std::atomic<int> completed{0};
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      site.engine->post_timer([&] { completed.fetch_add(1); });
    });
  }
  // With the apply thread stalled, at most `capacity` commands may be
  // admitted; the remaining producers must be blocked in enqueue.
  std::this_thread::sleep_for(100ms);
  {
    const auto qs = site.engine->queue_stats();
    EXPECT_LE(qs.depth, 2u);
    EXPECT_LE(qs.peak_depth, 2u);
  }
  {
    std::lock_guard lk(gate_mu);
    open = true;
  }
  gate_cv.notify_all();
  for (auto& th : producers) th.join();
  // The queue is FIFO: once a report enqueued after every timer answers,
  // all of them have run.
  ASSERT_TRUE(report(*site.engine).has_value());
  EXPECT_EQ(completed.load(), kProducers);
  const auto qs = site.engine->queue_stats();
  EXPECT_GT(qs.producer_waits, 0u);
  EXPECT_EQ(qs.capacity, 2u);
}

TEST(ProtocolEngineTest, CoveredWaiterFulfilledByLaterApply) {
  // Two sites, every var on both. Site 0 writes but its update is trapped,
  // so site 1 is not covered by site 0's token until the test delivers it.
  const auto rmap = causal::ReplicaMap::full(2, 2);
  EngineSite a(0, rmap);
  EngineSite b(1, rmap);

  ASSERT_TRUE(write(*a.engine, 0, "v").has_value());
  const auto token = coverage_token(*a.engine, 1);
  ASSERT_TRUE(token.has_value());

  // Not covered yet: the wait must time out with verdict false.
  const auto miss = wait_covered(*b.engine, *token, 50'000);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(*miss);

  // Park a long wait, then deliver the trapped update; the apply must wake
  // and fulfill the parked waiter well before its deadline.
  std::thread waiter([&] {
    const auto hit = wait_covered(*b.engine, *token, 5'000'000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(*hit);
  });
  std::this_thread::sleep_for(50ms);
  for (auto& msg : a.trap.drain()) {
    if (msg.dst == 1) b.engine->apply_message(std::move(msg));
  }
  waiter.join();
}

TEST(ProtocolEngineTest, StopAbortsBlockedRemoteRead) {
  // Var 1 lives only at site 1, so site 0's read issues a RemoteFetch whose
  // response never arrives (the trap swallows it): the reader parks.
  const auto rmap =
      causal::ReplicaMap::custom(2, {{0}, {1}});
  EngineSite a(0, rmap);

  std::atomic<bool> returned{false};
  std::thread reader([&] {
    const auto v = read(*a.engine, 1);
    EXPECT_FALSE(v.has_value());
    returned.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(returned.load());
  a.engine->stop();
  reader.join();
  EXPECT_TRUE(returned.load());

  // A stopped engine rejects everything with nullopt.
  EXPECT_FALSE(write(*a.engine, 0, "v").has_value());
  EXPECT_FALSE(read(*a.engine, 0).has_value());
}

TEST(ProtocolEngineTest, StopAbortsParkedCoveredWaiter) {
  const auto rmap = causal::ReplicaMap::full(2, 1);
  EngineSite a(0, rmap);
  EngineSite b(1, rmap);
  ASSERT_TRUE(write(*a.engine, 0, "v").has_value());
  const auto token = coverage_token(*a.engine, 1);
  ASSERT_TRUE(token.has_value());

  std::thread waiter([&] {
    EXPECT_FALSE(wait_covered(*b.engine, *token, 30'000'000).has_value());
  });
  std::this_thread::sleep_for(50ms);
  b.engine->stop();
  waiter.join();
}

TEST(ProtocolEngineTest, QueueStatsCountPerKind) {
  const auto rmap = causal::ReplicaMap::full(1, 2);
  EngineSite site(0, rmap);
  ASSERT_TRUE(write(*site.engine, 0, "v").has_value());
  ASSERT_TRUE(read(*site.engine, 0).has_value());
  ASSERT_TRUE(snapshot(*site.engine, {0, 1}).has_value());
  ASSERT_TRUE(report(*site.engine).has_value());
  site.engine->post_timer([] {});

  const auto qs = site.engine->queue_stats();
  using Kind = ProtocolEngine::CmdKind;
  const auto count = [&](Kind k) {
    return qs.enqueued[static_cast<std::size_t>(k)];
  };
  EXPECT_EQ(count(Kind::kWrite), 1u);
  EXPECT_EQ(count(Kind::kRead), 1u);
  EXPECT_EQ(count(Kind::kSnapshot), 1u);
  EXPECT_GE(count(Kind::kStatus), 1u);
  EXPECT_EQ(count(Kind::kTimer), 1u);
  EXPECT_EQ(qs.enqueued_total(),
            count(Kind::kWrite) + count(Kind::kRead) + count(Kind::kSnapshot) +
                count(Kind::kStatus) + count(Kind::kTimer));
}

TEST(ProtocolEngineTest, MetricsSnapshotReadableAfterStop) {
  const auto rmap = causal::ReplicaMap::full(1, 1);
  EngineSite site(0, rmap);
  ASSERT_TRUE(write(*site.engine, 0, "v").has_value());
  site.engine->stop();
  // A stopped engine answers from its quiescent state, on this thread.
  std::optional<ProtocolEngine::Report> r;
  bool answered = false;
  site.engine->async_report([&](std::optional<ProtocolEngine::Report> v) {
    r = std::move(v);
    answered = true;
  });
  EXPECT_TRUE(answered);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->protocol.writes, 1u);
  EXPECT_EQ(r->pending_updates, 0u);
  const auto again = report(*site.engine);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->protocol.writes, 1u);
}

// Two threads racing stop() must not both join the apply thread (a second
// join on an already-joined std::thread throws), and post-mortem quiescent
// reads must serialize against the lifecycle, not crash.
TEST(ProtocolEngineTest, ConcurrentStopsAndPostMortemReadsAreSafe) {
  const auto rmap = causal::ReplicaMap::full(1, 1);
  EngineSite site(0, rmap);
  ASSERT_TRUE(write(*site.engine, 0, "v").has_value());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { site.engine->stop(); });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // During the stop race these may see nullopt (stop in flight) or the
      // quiescent fallback value; either way they must not crash or race.
      (void)report(*site.engine);
      (void)report(*site.engine);
    });
  }
  for (auto& th : threads) th.join();

  const auto st = report(*site.engine);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->protocol.writes, 1u);
}

}  // namespace
}  // namespace ccpr::server
