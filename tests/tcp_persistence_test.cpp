// Durability end-to-end test: forks a 3-site loopback cluster of real
// ccpr_server processes with --data-dir, SIGKILLs one site while writes
// continue at the survivors, restarts it against the same WAL, and then
// proves four things:
//
//   1. restart amnesia is gone — a value written at the site before the
//      kill is readable there after the restart (recovered from the WAL,
//      not re-learned from peers, since the var lives only on disk + the
//      killed site's replica peers);
//   2. the anti-entropy catch-up handshake ran — the restarted site's
//      ccpr_catchup_updates_total metric is > 0;
//   3. the recorded client history passes the offline causal checker;
//   4. all replicas converge once traffic stops (convergent LWW mode).
//
// A second test SIGKILLs a single-site cluster running --wal-sync=batch:
// a process kill must lose nothing even without per-append fsync, because
// the write() syscall reaches the kernel before the client sees the ack.
//
// The server binary path is injected by CMake as CCPR_SERVER_BIN.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/convergence.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "server/cluster_config.hpp"
#include "server/durability.hpp"
#include "store/engine/value_engine.hpp"
#include "tcp_test_support.hpp"
#include "util/rng.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;

/// One forked ccpr_server process, optionally with extra flags
/// (--data-dir, --wal-sync).
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { terminate(); }

  void spawn(const std::string& config_path, causal::SiteId site,
             const std::vector<std::string>& extra_flags = {}) {
    ASSERT_EQ(pid_, -1);
    std::vector<std::string> argv_strs = {
        CCPR_SERVER_BIN, "--config=" + config_path,
        "--site=" + std::to_string(site)};
    for (const auto& f : extra_flags) argv_strs.push_back(f);
    std::vector<char*> argv;
    for (auto& s : argv_strs) argv.push_back(s.data());
    argv.push_back(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execv(CCPR_SERVER_BIN, argv.data());
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

/// RAII temp directory for the cluster's --data-dir.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ccpr_persist_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    if (p) path_ = p;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// `ops` mixed put/get operations from one recorded session at `site`.
/// Sessions touch only vars [0, n_vars); the test reserves vars above
/// that as sentinels no workload session ever overwrites.
void run_session(const server::ClusterConfig& cfg, causal::SiteId site,
                 checker::HistoryRecorder* rec, std::uint64_t seed,
                 std::size_t ops, double write_rate, std::uint32_t n_vars) {
  client::Client::Options copts;
  copts.recorder = rec;
  client::Client cli(cfg, site, copts);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < ops; ++i) {
    const auto x = static_cast<causal::VarId>(rng.below(n_vars));
    if (rng.chance(write_rate)) {
      cli.put(x, "s" + std::to_string(site) + "-" + std::to_string(i));
    } else {
      (void)cli.get(x);
    }
  }
}

// The whole durability path must be engine-independent: each test runs
// once per value-store engine. The compact runs use deliberately hostile
// tuning — tiny shards, a 1-byte spill budget (every cold value spills)
// and frequent checkpoints — so kill/restart recovery exercises the WAL
// and the spill segment together.
class TcpPersistenceTest : public ::testing::TestWithParam<store::EngineKind> {
 protected:
  void apply_engine(server::ClusterConfig& cfg) const {
    cfg.protocol.store_engine.kind = GetParam();
    if (GetParam() == store::EngineKind::kCompact) {
      cfg.protocol.store_engine.shards = 2;
      cfg.protocol.store_engine.inline_max = 32;
      cfg.protocol.store_engine.spill_budget_bytes = 1;
      cfg.checkpoint_every = 64;  // frequent spill-segment rotations
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, TcpPersistenceTest,
                         ::testing::Values(store::EngineKind::kMap,
                                           store::EngineKind::kCompact),
                         [](const auto& param_info) {
                           return std::string(
                               store::engine_kind_token(param_info.param));
                         });

/// Value of a counter/gauge sample (`name{labels} value`) in Prometheus
/// exposition text, or -1 when absent.
double parse_metric(const std::string& text, const std::string& name) {
  std::size_t pos = 0;
  const std::string needle = name + "{";
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, needle.size(), needle) == 0) {
      const std::size_t close = text.find("} ", pos);
      if (close != std::string::npos && close < eol) {
        return std::stod(text.substr(close + 2, eol - close - 2));
      }
    }
    pos = eol + 1;
  }
  return -1.0;
}

TEST_P(TcpPersistenceTest, KillRestartCatchesUpAndConverges) {
  // 13 vars, but workload sessions write only vars [0, 12): var 12 is a
  // sentinel reserved for the pre-kill durability probe, placed at the
  // to-be-killed site (and one peer) by an explicit override.
  auto cfg = testing::loopback_config(3, 13, 2);
  const std::uint32_t kWorkloadVars = 12;
  const causal::VarId kSentinelVar = 12;
  cfg.placement_overrides.emplace_back(kSentinelVar,
                                       std::vector<causal::SiteId>{2, 0});
  cfg.algorithm = causal::Algorithm::kOptTrack;
  cfg.protocol.fetch_timeout_us = 150000;
  // Convergent LWW mode so the end-of-test convergence audit can demand
  // full replica agreement, not just causal legality.
  cfg.protocol.convergent = true;
  // Tight catch-up cadence so the restarted site recovers within the
  // startup gate rather than on the background tick.
  cfg.catchup_interval_ms = 100;
  // Small per-peer queues: the burst of writes issued while site 2 is down
  // overflows the survivors' outbound queues toward it (drop-oldest), so
  // the reconnect cannot replay everything from the queue — the WAL-backed
  // catch-up retention is the only recovery path for the dropped prefix,
  // making the ccpr_catchup_updates_total assertion below deterministic
  // instead of a race between queue drain and the catch-up response.
  // Client-paced live traffic keeps queue depth near 1, so the cap never
  // binds while all sites are up.
  cfg.peer_queue_cap = 32;
  apply_engine(cfg);

  char path[] = "/tmp/ccpr_persist_cfg_XXXXXX";
  const int cfd = ::mkstemp(path);
  ASSERT_GE(cfd, 0);
  ::close(cfd);
  {
    std::ofstream out(path);
    out << cfg.to_text();
  }

  TempDir data_dir;
  const std::vector<std::string> wal_flags = {"--data-dir=" + data_dir.path(),
                                              "--wal-sync=always"};

  ServerProcess servers[3];
  for (causal::SiteId s = 0; s < 3; ++s) {
    servers[s].spawn(path, s, wal_flags);
    ASSERT_TRUE(servers[s].running());
  }

  checker::HistoryRecorder recorder;

  // Phase 1: three concurrent recorded sessions, one per site.
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 3; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 100 + s, 40, 0.4, kWorkloadVars); });
    }
    for (auto& t : sessions) t.join();
  }

  // A sentinel written at site 2 right before the kill. With the WAL it
  // must survive the SIGKILL *at site 2 itself*, not merely at the peer
  // replica. The sentinel var is outside the workload range, so no later
  // session can legitimately overwrite it — any other value after the
  // restart means amnesia. Recorded: later recorded sessions may read it,
  // and the checker's read-integrity pass requires every observed write
  // to exist in the history.
  const auto rmap = cfg.replica_map();
  ASSERT_TRUE(rmap.replicated_at(kSentinelVar, 2));
  {
    client::Client::Options copts;
    copts.recorder = &recorder;
    client::Client probe(cfg, 2, copts);
    probe.put(kSentinelVar, "pre-kill-durable");
    ASSERT_EQ(probe.get(kSentinelVar).data, "pre-kill-durable");
  }

  // SIGKILL site 2: no shutdown hooks, no flush beyond what each acked
  // operation already forced through the WAL.
  servers[2].kill_hard();

  // Phase 2: writes continue at the survivors while site 2 is down — a
  // burst heavy enough that each survivor's outbound queue toward site 2
  // overflows past the cap above. These are the updates the catch-up
  // handshake must replay after the restart.
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 2; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 200 + s, 80, 0.8, kWorkloadVars); });
    }
    for (auto& t : sessions) t.join();
  }

  // Restart site 2 against the same data dir.
  servers[2].spawn(path, 2, wal_flags);
  ASSERT_TRUE(servers[2].running());

  // 1) Restart amnesia is fixed: the pre-kill sentinel is readable at the
  //    restarted site. Reads are served locally, so this can only succeed
  //    if WAL recovery rebuilt the store.
  {
    client::Client probe(cfg, 2);
    EXPECT_EQ(probe.get(kSentinelVar).data, "pre-kill-durable");

    // 2) The catch-up handshake actually ran and delivered missed updates.
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    double caught_up = 0.0;
    while (true) {
      caught_up = parse_metric(probe.metrics_text(),
                               "ccpr_catchup_updates_total");
      if (caught_up > 0.0) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restarted site never applied catch-up updates "
             "(ccpr_catchup_updates_total stayed at "
          << caught_up << ")";
      std::this_thread::sleep_for(50ms);
    }
    EXPECT_GT(caught_up, 0.0);
    EXPECT_EQ(parse_metric(probe.metrics_text(), "ccpr_wal_enabled"), 1.0);

    // The kStoreStat admin op reflects the configured engine, and WAL
    // recovery repopulated it. Under the 1-byte spill budget the compact
    // engine must have demoted recovered values to its spill segment.
    const auto st = probe.store_stat();
    EXPECT_EQ(st.kind, GetParam());
    EXPECT_GT(st.keys, 0u);
    if (GetParam() == store::EngineKind::kCompact) {
      EXPECT_GT(st.spill_writes, 0u);
    }
  }

  // Phase 3: all three sites take recorded traffic again — including the
  // restarted one, whose write sequence numbers continue from the WAL
  // instead of colliding with its pre-kill incarnation.
  {
    std::vector<std::thread> sessions;
    for (causal::SiteId s = 0; s < 3; ++s) {
      sessions.emplace_back(
          [&, s] { run_session(cfg, s, &recorder, 300 + s, 20, 0.4, kWorkloadVars); });
    }
    for (auto& t : sessions) t.join();
  }

  // 4) Convergence: after traffic stops, every replica pair must agree.
  // Propagation is asynchronous, so poll the audit until it settles.
  {
    std::vector<std::unique_ptr<client::Client>> peekers;
    for (causal::SiteId s = 0; s < 3; ++s) {
      peekers.push_back(std::make_unique<client::Client>(cfg, s));
    }
    const auto peek = [&](causal::SiteId s, causal::VarId x) {
      return peekers[s]->get(x);
    };
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    checker::ConvergenceReport report;
    while (true) {
      report = checker::audit_convergence(rmap, peek);
      if (report.converged()) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "replicas still divergent on " << report.divergent_vars
          << " vars after quiescence";
      std::this_thread::sleep_for(100ms);
    }
    EXPECT_EQ(report.vars_checked, cfg.vars);
    EXPECT_TRUE(report.converged());
  }

  for (auto& srv : servers) srv.terminate();
  ::unlink(path);

  // 3) Offline causal check over the recorded client history. Applies are
  // not recorded, so delivery completeness is out of scope; read legality
  // and read integrity are fully checked.
  checker::CheckOptions opts;
  opts.require_complete_delivery = false;
  const auto result =
      checker::check_causal_consistency(recorder, rmap, opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
  EXPECT_GT(result.ops_checked, 0u);

  // Bonus: the offline wal-stat path reads the dead cluster's logs.
  std::string text;
  std::string error;
  ASSERT_TRUE(
      server::Durability::describe_wal(data_dir.path(), 2, &text, &error))
      << error;
  EXPECT_NE(text.find("records"), std::string::npos);
}

TEST_P(TcpPersistenceTest, BatchSyncSurvivesSigkill) {
  auto cfg = testing::loopback_config(1, 4, 1);
  cfg.algorithm = causal::Algorithm::kOptTrack;
  apply_engine(cfg);

  char path[] = "/tmp/ccpr_persist_cfg_XXXXXX";
  const int cfd = ::mkstemp(path);
  ASSERT_GE(cfd, 0);
  ::close(cfd);
  {
    std::ofstream out(path);
    out << cfg.to_text();
  }

  TempDir data_dir;
  const std::vector<std::string> wal_flags = {"--data-dir=" + data_dir.path(),
                                              "--wal-sync=batch"};

  ServerProcess server;
  server.spawn(path, 0, wal_flags);
  ASSERT_TRUE(server.running());

  {
    client::Client cli(cfg, 0);
    for (int i = 0; i < 25; ++i) {
      cli.put(static_cast<causal::VarId>(i % 4), "v" + std::to_string(i));
    }
  }

  // SIGKILL with --wal-sync=batch: the un-fsynced tail is still in the
  // kernel page cache, and a process kill (unlike power loss) cannot
  // revoke it. Every acked write must come back.
  server.kill_hard();
  server.spawn(path, 0, wal_flags);
  ASSERT_TRUE(server.running());

  {
    client::Client cli(cfg, 0);
    EXPECT_EQ(cli.get(0).data, "v24");
    EXPECT_EQ(cli.get(1).data, "v21");
    EXPECT_EQ(cli.get(2).data, "v22");
    EXPECT_EQ(cli.get(3).data, "v23");
  }

  server.terminate();
  ::unlink(path);
}

}  // namespace
}  // namespace ccpr
