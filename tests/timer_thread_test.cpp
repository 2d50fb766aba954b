#include "util/timer_thread.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "tcp_test_support.hpp"

namespace ccpr::util {
namespace {

TEST(TimerThreadTest, FiresScheduledCallback) {
  TimerThread t;
  t.start();
  std::atomic<bool> fired{false};
  t.schedule_after(1'000, [&] { fired = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(fired);
  t.stop();
}

TEST(TimerThreadTest, FiresInDeadlineOrder) {
  TimerThread t;
  t.start();
  std::mutex mu;
  std::vector<int> order;
  std::atomic<int> done{0};
  t.schedule_after(30'000, [&] {
    std::lock_guard lk(mu);
    order.push_back(3);
    ++done;
  });
  t.schedule_after(5'000, [&] {
    std::lock_guard lk(mu);
    order.push_back(1);
    ++done;
  });
  t.schedule_after(15'000, [&] {
    std::lock_guard lk(mu);
    order.push_back(2);
    ++done;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (done < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  std::lock_guard lk(mu);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  t.stop();
}

TEST(TimerThreadTest, StopDiscardsPendingTimers) {
  TimerThread t;
  t.start();
  std::atomic<bool> fired{false};
  t.schedule_after(60'000'000, [&] { fired = true; });  // one minute out
  EXPECT_EQ(t.pending(), 1u);
  t.stop();
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_FALSE(fired);
}

TEST(TimerThreadTest, StopIsIdempotentAndRestartable) {
  TimerThread t;
  t.start();
  t.stop();
  t.stop();
  t.start();
  std::atomic<bool> fired{false};
  t.schedule_after(500, [&] { fired = true; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!fired && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(fired);
  t.stop();
}

// End to end: the §V fetch failover runs on the site server's timer
// thread. Without a crash, a remote read must need no retry and the timer
// machinery must stay silent.
TEST(TimerThreadTest, TcpClusterFetchFailover) {
  auto cfg = ccpr::testing::loopback_config(3, 1, 2);
  cfg.protocol.fetch_timeout_us = 20'000;  // 20ms wall time
  // Var 0 at {1, 2}; site 0 reads it remotely.
  cfg.placement_overrides.emplace_back(0, std::vector<causal::SiteId>{1, 2});
  ccpr::testing::LocalCluster cluster(cfg);
  ASSERT_TRUE(cluster.started());
  checker::HistoryRecorder recorder;
  client::Client::Options copts;
  copts.recorder = &recorder;
  client::Client writer(cfg, 2, copts);
  client::Client reader(cfg, 0, copts);
  writer.put(0, "hot-standby");
  ccpr::testing::drain(cfg);
  EXPECT_EQ(reader.get(0).data, "hot-standby");
  ccpr::testing::drain(cfg);
  std::uint64_t fetch_retries = 0;
  for (const auto& srv : cluster.servers) {
    fetch_retries += srv->metrics().fetch_retries;
  }
  EXPECT_EQ(fetch_retries, 0u);
  ccpr::testing::expect_causal(recorder, cfg.replica_map());
}

}  // namespace
}  // namespace ccpr::util
