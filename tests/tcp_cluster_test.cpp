// End-to-end test of the real-network runtime: forks a 3-site loopback
// cluster of real ccpr_server processes, drives a seeded workload through
// the client library from three concurrent sessions, SIGKILLs one site
// mid-run and restarts it, then feeds the client-side recorded history to
// the offline causal checker.
//
// The server binary path is injected by CMake as CCPR_SERVER_BIN.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "server/cluster_config.hpp"
#include "tcp_test_support.hpp"
#include "util/rng.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;

/// One forked ccpr_server process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { terminate(); }

  void spawn(const std::string& config_path, causal::SiteId site) {
    ASSERT_EQ(pid_, -1);
    const std::string config_flag = "--config=" + config_path;
    const std::string site_flag = "--site=" + std::to_string(site);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl(CCPR_SERVER_BIN, CCPR_SERVER_BIN, config_flag.c_str(),
              site_flag.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    pid_ = pid;
  }

  void kill_hard() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

  void terminate() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    // Bounded wait, then escalate so a hung server cannot hang the test.
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(10ms);
    }
    kill_hard();
  }

  bool running() const { return pid_ >= 0; }

 private:
  pid_t pid_ = -1;
};

/// `ops` mixed put/get operations from one recorded session at `site`.
void run_session(const server::ClusterConfig& cfg, causal::SiteId site,
                 checker::HistoryRecorder* rec, std::uint64_t seed,
                 std::size_t ops, double write_rate) {
  client::Client::Options copts;
  copts.recorder = rec;
  client::Client cli(cfg, site, copts);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto x = static_cast<causal::VarId>(rng.below(cfg.vars));
    if (rng.chance(write_rate)) {
      cli.put(x, "s" + std::to_string(site) + "-" + std::to_string(i));
    } else {
      (void)cli.get(x);
    }
  }
}

TEST(TcpClusterTest, KillAndRestartSurvivesCausalCheck) {
  auto cfg = testing::loopback_config(3, 12, 2);
  cfg.algorithm = causal::Algorithm::kOptTrack;
  // §V failover: a fetch aimed at the killed site retries the next-ranked
  // replica after this timeout instead of blocking forever.
  cfg.protocol.fetch_timeout_us = 150000;

  char path[] = "/tmp/ccpr_cluster_XXXXXX";
  const int cfd = ::mkstemp(path);
  ASSERT_GE(cfd, 0);
  ::close(cfd);
  {
    std::ofstream out(path);
    out << cfg.to_text();
  }

  ServerProcess servers[3];
  for (causal::SiteId s = 0; s < 3; ++s) {
    servers[s].spawn(path, s);
    ASSERT_TRUE(servers[s].running());
  }

  checker::HistoryRecorder recorder;

  // Phase 1: three concurrent sessions, one per site, all recorded.
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 3; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 100 + s, 60, 0.4); });
    }
    for (auto& t : sessions) t.join();
  }

  // Kill site 2 without warning: its in-memory protocol state is gone, and
  // updates queued toward it must survive in the peers' sender queues.
  servers[2].kill_hard();

  // Phase 2: sites 0 and 1 keep operating against the degraded cluster
  // (every var still has a live replica at p=2, n=3).
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 2; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 200 + s, 20, 0.5); });
    }
    for (auto& t : sessions) t.join();
  }

  // Restart site 2 and prove the peers' backoff loops reconnect: the fresh
  // process must receive the traffic that queued while it was down.
  servers[2].spawn(path, 2);
  ASSERT_TRUE(servers[2].running());
  {
    client::Client probe(cfg, 2);
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (true) {
      const auto st = probe.status();
      if (st.peer_msgs_recv > 0) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted site never received the queued peer traffic";
      std::this_thread::sleep_for(20ms);
    }
  }

  // Phase 3: the healthy sites keep going with the revived peer in place.
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 2; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 300 + s, 20, 0.4); });
    }
    for (auto& t : sessions) t.join();
  }

  // The inbound probe above only proves peers can reach site 2. Also prove
  // the reverse: a write accepted by the restarted site must propagate, i.e.
  // the peers must accept site 2's fresh outbound stream (new channel epoch,
  // chan_seq restarted at 1) rather than dropping it as duplicates of the
  // dead process's updates. Runs
  // after the recorded phases and unrecorded, because the restarted site's
  // write ids restart too and would collide with phase-1 recordings.
  {
    const auto rmap = cfg.replica_map();
    causal::VarId shared = cfg.vars;
    for (causal::VarId x = 0; x < cfg.vars; ++x) {
      if (rmap.replicated_at(x, 0) && rmap.replicated_at(x, 2)) {
        shared = x;
        break;
      }
    }
    ASSERT_LT(shared, cfg.vars) << "config has no var replicated at 0 and 2";
    client::Client writer(cfg, 2);
    writer.put(shared, "from-restarted-site");
    client::Client reader(cfg, 0);
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (reader.get(shared).data != "from-restarted-site") {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted site's outbound updates never reached site 0";
      std::this_thread::sleep_for(20ms);
    }
  }

  for (auto& srv : servers) srv.terminate();
  ::unlink(path);

  // Client-side history: per-session recording order is program order, and
  // each site hosted one session at a time, so the checker's per-process
  // sequences are exactly the sessions' op sequences. Applies were not
  // recorded (they died with the killed process), so delivery completeness
  // is out of scope; read legality and read integrity are fully checked.
  checker::CheckOptions opts;
  opts.require_complete_delivery = false;
  const auto result = checker::check_causal_consistency(
      recorder, cfg.replica_map(), opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
  EXPECT_GT(result.ops_checked, 0u);
}

TEST(TcpClusterTest, MigrationPreservesReadYourWrites) {
  auto cfg = testing::loopback_config(2, 4, 2);
  cfg.algorithm = causal::Algorithm::kOptTrack;

  char path[] = "/tmp/ccpr_cluster_XXXXXX";
  const int cfd = ::mkstemp(path);
  ASSERT_GE(cfd, 0);
  ::close(cfd);
  {
    std::ofstream out(path);
    out << cfg.to_text();
  }

  ServerProcess servers[2];
  for (causal::SiteId s = 0; s < 2; ++s) servers[s].spawn(path, s);

  {
    client::Client cli(cfg, 0);
    cli.put(0, "pre-migration");
    cli.migrate(1);
    EXPECT_EQ(cli.site(), 1u);
    // The coverage handshake guarantees the new site already applied the
    // session's causal past: the write must be visible immediately.
    EXPECT_EQ(cli.get(0).data, "pre-migration");
    cli.put(0, "post-migration");
    EXPECT_EQ(cli.get(0).data, "post-migration");
  }

  for (auto& srv : servers) srv.terminate();
  ::unlink(path);
}

}  // namespace
}  // namespace ccpr
