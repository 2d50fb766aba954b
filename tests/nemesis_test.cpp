// Nemesis test: a real 3-process cluster driven through repeated fault
// rounds — partition (via the chaos admin op), SIGKILL + restart, and a
// slow lossy link — while recorded client sessions keep operating with
// retry + failover enabled. The contract under test, matching the fault
// model in docs/RUNTIMES.md:
//
//   * every operation either succeeds (possibly after a transparent
//     failover to another site) or fails fast with a typed client::Error
//     well before the operation deadline — nothing hangs;
//   * a read-only session at a fully partitioned site with failover
//     enabled sees ~zero errors, while the same workload without retry
//     fails (the availability win is measurable);
//   * the failure detector surfaces the partition (suspected peers in
//     kStatus) and clears it after heal;
//   * after all faults heal, every replica converges (convergent LWW) and
//     the recorded history passes the offline causal checker —
//     indeterminate (maybe-executed) puts included.
//
// Round count scales with CCPR_NEMESIS_ROUNDS (default 3; CI short mode
// uses 2). The server binary path is injected by CMake as CCPR_SERVER_BIN.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/causal_checker.hpp"
#include "checker/recorder.hpp"
#include "client/client.hpp"
#include "net/chaos.hpp"
#include "server/cluster_config.hpp"
#include "tcp_test_support.hpp"
#include "util/rng.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;
using testing::eventually;

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

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/ccpr_nemesis_XXXXXX";
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

/// Can we complete a ping against `site` right now?
bool pingable(const server::ClusterConfig& cfg, causal::SiteId site) {
  try {
    client::Client::Options copts;
    copts.connect_timeout = 500ms;
    copts.request_timeout = 2000ms;
    copts.retry.enabled = false;
    client::Client cli(cfg, site, copts);
    cli.ping();
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

struct SessionOutcome {
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::chrono::milliseconds slowest_op{0};
};

/// One recorded causal session: `ops` seeded put/get ops starting at
/// `site`, with retry + failover on. Every op must either succeed or throw
/// a typed client::Error within the op deadline (plus scheduling slack) —
/// an op that hangs longer fails the test on the spot.
SessionOutcome run_session(const server::ClusterConfig& cfg,
                           causal::SiteId site,
                           checker::HistoryRecorder* rec, std::uint64_t seed,
                           std::size_t ops, double write_rate) {
  constexpr auto kOpDeadline = 6s;
  constexpr auto kSlack = 6s;
  SessionOutcome out;
  client::Client::Options copts;
  copts.recorder = rec;
  copts.connect_timeout = 1000ms;
  copts.request_timeout = 2000ms;
  copts.retry.enabled = true;
  copts.retry.failover = true;
  copts.retry.op_deadline =
      std::chrono::duration_cast<std::chrono::milliseconds>(kOpDeadline);
  std::unique_ptr<client::Client> cli;
  try {
    cli = std::make_unique<client::Client>(cfg, site, copts);
  } catch (const client::Error&) {
    // The whole site may be down before the first op; that counts as one
    // typed failure, not a test bug.
    out.errors = ops;
    return out;
  }
  util::Rng rng(seed);
  const std::uint32_t q = cfg.vars;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto x = static_cast<causal::VarId>(rng.below(q));
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (rng.chance(write_rate)) {
        cli->put(x, "s" + std::to_string(site) + "-" + std::to_string(seed) +
                        "-" + std::to_string(i));
      } else {
        (void)cli->get(x);
      }
      ++out.ok;
    } catch (const client::Error&) {
      ++out.errors;
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0);
    out.slowest_op = std::max(out.slowest_op, elapsed);
    EXPECT_LT(elapsed, kOpDeadline + kSlack)
        << "op " << i << " at site " << site << " blew through the deadline";
  }
  return out;
}

client::Client admin(const server::ClusterConfig& cfg, causal::SiteId site) {
  client::Client::Options copts;
  copts.connect_timeout = 1000ms;
  copts.request_timeout = 2000ms;
  copts.retry.enabled = false;
  return client::Client(cfg, site, copts);
}

/// Parameterized over the engine-shard count: the full nemesis schedule
/// (partition, SIGKILL + WAL restart, slow links) must hold with sharded
/// engines too — per-shard WALs recover, cross-shard envelopes drain after
/// heal, and the checker accepts the history either way.
class NemesisTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NemesisTest, ClusterSurvivesPartitionKillAndSlowLinkRounds) {
  int rounds = 3;
  if (const char* env = std::getenv("CCPR_NEMESIS_ROUNDS")) {
    rounds = std::max(1, std::atoi(env));
  }

  const std::uint32_t n = 3, q = 9, p = 2;
  auto cfg = testing::loopback_config(n, q, p);
  cfg.protocol.engine_shards = GetParam();
  cfg.algorithm = causal::Algorithm::kOptTrack;
  cfg.protocol.convergent = true;  // LWW, so healed replicas agree
  cfg.protocol.fetch_timeout_us = 150'000;
  cfg.catchup_interval_ms = 100;
  cfg.catchup_timeout_ms = 2'000;
  cfg.heartbeat_interval_us = 50'000;
  cfg.suspect_after_us = 400'000;
  cfg.peer_queue_cap = 256;

  TempDir data_dir;
  char path[] = "/tmp/ccpr_nemesis_cfg_XXXXXX";
  const int cfd = ::mkstemp(path);
  ASSERT_GE(cfd, 0);
  ::close(cfd);
  {
    std::ofstream out(path);
    out << cfg.to_text();
  }
  const std::vector<std::string> flags = {"--data-dir=" + data_dir.path(),
                                          "--wal-sync=batch"};

  std::vector<std::unique_ptr<ServerProcess>> procs;
  for (causal::SiteId s = 0; s < n; ++s) {
    procs.push_back(std::make_unique<ServerProcess>());
    procs.back()->spawn(path, s, flags);
  }
  for (causal::SiteId s = 0; s < n; ++s) {
    ASSERT_TRUE(eventually([&] { return pingable(cfg, s); }, 15'000ms))
        << "site " << s << " never came up";
  }

  checker::HistoryRecorder recorder;
  util::Rng seeds(0xee);

  // Warm-up: every site serves a mixed session with the cluster healthy.
  for (causal::SiteId s = 0; s < n; ++s) {
    const auto r = run_session(cfg, s, &recorder, seeds.next(), 15, 0.5);
    EXPECT_EQ(r.errors, 0u) << "healthy-cluster session failed at " << s;
  }

  for (int round = 0; round < rounds; ++round) {
    const auto victim =
        static_cast<causal::SiteId>(static_cast<std::uint32_t>(round) % n);
    const auto healthy = static_cast<causal::SiteId>((victim + 1) % n);
    const int mode = round % 3;
    SCOPED_TRACE("round " + std::to_string(round) + " victim " +
                 std::to_string(victim) + " mode " + std::to_string(mode));

    if (mode == 0) {
      // ---- full partition of the victim, via the chaos admin op ----
      {
        net::ChaosRule rule;
        rule.partition = true;
        admin(cfg, victim).chaos_set(rule);  // all peers
      }
      // The failure detector on a healthy site flags the victim.
      ASSERT_TRUE(eventually(
          [&] {
            auto st = admin(cfg, healthy).status();
            return std::find(st.suspected_peers.begin(),
                             st.suspected_peers.end(),
                             victim) != st.suspected_peers.end();
          },
          5'000ms))
          << "victim never suspected";

      // Baseline: a read-only, no-retry session pinned to the victim.
      // Remote reads hit kUnavailable fast-fails (every replica of a
      // non-local var is suspected) — errors are guaranteed.
      std::size_t baseline_errors = 0;
      {
        client::Client::Options copts;
        copts.connect_timeout = 1000ms;
        copts.request_timeout = 2000ms;
        copts.retry.enabled = false;
        client::Client bare(cfg, victim, copts);
        for (causal::VarId x = 0; x < q; ++x) {
          try {
            (void)bare.get(x);
          } catch (const client::Error&) {
            ++baseline_errors;
          }
        }
      }
      EXPECT_GT(baseline_errors, 0u)
          << "partition produced no errors without retry?";

      // The same read-only workload with retry + failover: the session
      // abandons the partitioned site and finishes clean.
      std::size_t failover_errors = 0;
      std::uint64_t failovers = 0;
      {
        client::Client::Options copts;
        copts.connect_timeout = 1000ms;
        copts.request_timeout = 2000ms;
        copts.retry.enabled = true;
        copts.retry.failover = true;
        copts.retry.op_deadline = 6'000ms;
        client::Client cli(cfg, victim, copts);
        for (causal::VarId x = 0; x < q; ++x) {
          try {
            (void)cli.get(x);
          } catch (const client::Error&) {
            ++failover_errors;
          }
        }
        failovers = cli.failovers();
      }
      EXPECT_EQ(failover_errors, 0u) << "failover did not mask the partition";
      EXPECT_GE(failovers, 1u);

      // Meanwhile healthy sites keep serving recorded mixed sessions.
      for (causal::SiteId s = 0; s < n; ++s) {
        if (s == victim) continue;
        const auto r = run_session(cfg, s, &recorder, seeds.next(), 12, 0.5);
        EXPECT_EQ(r.errors, 0u) << "healthy site " << s << " failed";
      }

      // Heal and wait for suspicion to clear everywhere.
      admin(cfg, victim).chaos_clear();
      ASSERT_TRUE(eventually(
          [&] { return admin(cfg, healthy).status().suspected_peers.empty(); },
          10'000ms));
    } else if (mode == 1) {
      // ---- SIGKILL the victim mid-session, then restart it ----
      std::thread killer([&] {
        std::this_thread::sleep_for(150ms);
        procs[victim]->kill_hard();
      });
      // A recorded session pinned to the victim rides through the crash:
      // retried/indeterminate puts are recorded as maybe-writes, reads
      // fail over. Errors are tolerated (a put acked but not yet
      // propagated pins the session's causal past to the dead site);
      // what's asserted inside run_session is the deadline bound.
      const auto r = run_session(cfg, victim, &recorder, seeds.next(), 25,
                                 0.4);
      killer.join();
      EXPECT_GT(r.ok, 0u) << "no op survived the crash round";

      // Survivors keep working while the victim is down.
      const auto rh = run_session(cfg, healthy, &recorder, seeds.next(), 12,
                                  0.5);
      EXPECT_EQ(rh.errors, 0u);

      procs[victim]->spawn(path, victim, flags);
      ASSERT_TRUE(eventually([&] { return pingable(cfg, victim); },
                             20'000ms))
          << "victim did not restart";
    } else {
      // ---- slow, lossy link from the victim toward everyone ----
      {
        net::ChaosRule rule;
        rule.drop_milli = 200;  // 20% loss
        rule.delay_us = 20'000;
        admin(cfg, victim).chaos_set(rule);
      }
      for (causal::SiteId s = 0; s < n; ++s) {
        const auto r = run_session(cfg, s, &recorder, seeds.next(), 12, 0.5);
        // Slow/lossy is degraded, not partitioned: ops may retry but the
        // deadline bound inside run_session must hold.
        EXPECT_GT(r.ok, 0u) << "site " << s << " served nothing";
      }
      admin(cfg, victim).chaos_clear();
    }
  }

  // Quiescence: all faults healed, all processes up. Every replica of
  // every var must converge to one value (convergent LWW + catch-up).
  for (causal::SiteId s = 0; s < n; ++s) {
    ASSERT_TRUE(eventually([&] { return pingable(cfg, s); }, 10'000ms));
  }
  const auto rmap = cfg.replica_map();
  ASSERT_TRUE(eventually(
      [&] {
        try {
          std::vector<client::Client> clis;
          for (causal::SiteId s = 0; s < n; ++s) clis.push_back(admin(cfg, s));
          for (causal::VarId x = 0; x < q; ++x) {
            std::string want;
            bool first = true;
            for (const auto s : rmap.replicas(x)) {
              const auto v = clis[s].get(x).data;
              if (first) {
                want = v;
                first = false;
              } else if (v != want) {
                return false;
              }
            }
          }
          return true;
        } catch (const std::exception&) {
          return false;
        }
      },
      30'000ms))
      << "replicas never converged after heal";

  // The offline checker accepts the whole recorded history. Delivery
  // completeness is not required (histories were cut by design), and
  // maybe-executed puts are tolerated via their kWriteMaybe records.
  checker::CheckOptions copts;
  copts.require_complete_delivery = false;
  const auto result =
      checker::check_causal_consistency(recorder, rmap, copts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

INSTANTIATE_TEST_SUITE_P(EngineShards, NemesisTest,
                         ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "shards" +
                                  std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace ccpr
