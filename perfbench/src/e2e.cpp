#include "e2e.hpp"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <array>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "causal/value_codec.hpp"
#include "loadgen.hpp"
#include "net/socket.hpp"
#include "server/site_server.hpp"
#include "util/rng.hpp"

namespace perfbench {

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

using ccpr::server::ClientStatus;

constexpr std::size_t kProbeConn = kSites;  // the 4th connection
constexpr std::uint32_t kProbeSite = 0;
constexpr std::size_t kMaxProbes = 64;  // outstanding visibility probes
/// Requests the closed-loop slices keep in flight over all site connections.
constexpr std::size_t kClosedWindow = 16;
/// Op-stream density for the closed-loop slices: more ops per second than
/// the cluster can complete, so the stream never runs dry.
constexpr double kClosedStreamRate = 250'000;
constexpr std::uint64_t kCoveredWaitUs = 2'000'000;
constexpr std::size_t kConvergenceKeys = 256;

/// Host-speed probe, independent of the program under test: while a
/// fixed-rate slice runs, one thread pings another with one byte over
/// loopback TCP every millisecond and times each round trip. Requests pay
/// the same thread wake-ups, syscalls and loopback stack under the same
/// contention, so on a host whose speed drifts from minute to minute the
/// latencies and the peak rate move with this figure.
class HostProbe {
 public:
  HostProbe() {
    std::uint16_t port = 0;
    const ccpr::net::Socket listener = ccpr::net::tcp_listen("127.0.0.1", 0, &port);
    client_ = ccpr::net::tcp_dial("127.0.0.1", port);
    while (ccpr::net::tcp_accept(listener.fd(), &server_) ==
           ccpr::net::AcceptResult::kRetryNow) {
    }
    if (!client_.valid() || !server_.valid()) return;
    echo_ = std::thread([fd = server_.fd()] {
      char b = 0;
      while (ccpr::net::read_all(fd, &b, 1) && ccpr::net::write_all(fd, &b, 1)) {
      }
    });
  }
  ~HostProbe() {
    client_.shutdown_both();
    if (echo_.joinable()) echo_.join();
  }
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Pings until stop(), appending each round trip (us) to `rtt_us`.
  void start(std::vector<double>* rtt_us) {
    if (!echo_.joinable()) return;
    stop_ = false;
    pinger_ = std::thread([this, rtt_us] {
      char b = 'p';
      while (!stop_.load(std::memory_order_relaxed)) {
        const std::uint64_t t0 = now_ns();
        if (!ccpr::net::write_all(client_.fd(), &b, 1) ||
            !ccpr::net::read_all(client_.fd(), &b, 1)) {
          return;
        }
        rtt_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  void stop() {
    stop_ = true;
    if (pinger_.joinable()) pinger_.join();
  }

 private:
  ccpr::net::Socket client_;
  ccpr::net::Socket server_;
  std::thread echo_;
  std::thread pinger_;
  std::atomic<bool> stop_{false};
};

/// Six distinct free loopback ports (held open together, then released).
std::vector<std::uint16_t> free_ports(std::size_t n) {
  std::vector<ccpr::net::Socket> hold;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t p = 0;
    hold.push_back(ccpr::net::tcp_listen("127.0.0.1", 0, &p));
    ports.push_back(p);
  }
  return ports;
}

/// Three SiteServers in this process, one per site, on loopback ports.
class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, std::uint32_t keys,
          const std::string& data_root) {
    auto cfg = ccpr::server::ClusterConfig::loopback(kSites, keys, kReplicas, 0);
    const auto ports = free_ports(2 * kSites);
    for (std::uint32_t s = 0; s < kSites; ++s) {
      cfg.sites[s].peer_port = ports[s];
      cfg.sites[s].client_port = ports[kSites + s];
    }
    // Causal+ (LWW at apply) so replicas of a key converge after drain;
    // plain causal consistency lets concurrent writes leave them apart.
    cfg.protocol.convergent = true;
    cfg.protocol.engine_shards = spec.shards;
    for (std::uint32_t s = 0; s < kSites; ++s) {
      ccpr::server::SiteServer::Options o;
      if (spec.durable) {
        o.data_dir = data_root + "/site-" + std::to_string(s);
        o.wal_sync = ccpr::server::Wal::Sync::kBatch;
      }
      sites_.push_back(std::make_unique<ccpr::server::SiteServer>(cfg, s, o));
    }
  }
  ~Cluster() {
    for (auto& s : sites_) s->stop();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool start() {
    for (auto& s : sites_) {
      if (!s->start()) return false;
    }
    return true;
  }
  std::vector<std::uint16_t> client_ports() const {
    std::vector<std::uint16_t> p;
    for (const auto& s : sites_) p.push_back(s->client_port());
    p.push_back(sites_[kProbeSite]->client_port());
    return p;
  }

 private:
  std::vector<std::unique_ptr<ccpr::server::SiteServer>> sites_;
};

/// Owns the checker state for one cluster and runs phases against it.
class LoadClient {
 public:
  LoadClient(Pipe& pipe, const RunOptions& opts, E2EResult& res)
      : pipe_(pipe), opts_(opts), res_(res) {
    pipe_.set_handler([this](std::size_t, const Tag& tag,
                             ccpr::net::Decoder& body, std::uint64_t recv) {
      on_response(tag, body, recv);
    });
  }

  bool preload(std::uint32_t keys) {
    const std::size_t window = 3 * 256;
    std::uint32_t next = 0;
    const std::uint64_t deadline = now_ns() + 120'000'000'000ULL;
    while (next < keys || pipe_.outstanding() > 0) {
      while (next < keys && pipe_.outstanding() < window) {
        Tag t;
        t.kind = Tag::kPut;
        t.key = next;
        t.site = static_cast<std::uint8_t>(next % kSites);
        t.check = true;
        pipe_.send(t.site, put_request(next, encode_value(next, kPreloadWriter, next)), t);
        ++next;
      }
      pipe_.flush();
      if (!pipe_.poll(1'000'000) || now_ns() > deadline) {
        violation("preload did not complete");
        return false;
      }
    }
    return preload_failures_ == 0;
  }

  /// Open loop: every op goes out at its due time whatever the backlog.
  PhaseSamples run_phase(const std::vector<Op>& ops, bool probe,
                         std::vector<std::uint64_t>* spans) {
    PhaseSamples ps;
    cur_ = &ps;
    probe_ = probe;
    spans_ = spans;
    const std::uint64_t start = now_ns() + 200'000;
    const std::uint64_t end = start + (ops.empty() ? 0 : ops.back().due_ns);
    std::size_t i = 0;
    while (true) {
      const std::uint64_t t = now_ns();
      for (; i < ops.size() && start + ops[i].due_ns <= t; ++i) {
        send_op(ops[i], start + ops[i].due_ns, t);
        ps.lag.push_back(static_cast<double>(t - (start + ops[i].due_ns)) / 1e3);
      }
      pipe_.flush();
      if (i == ops.size() && pipe_.outstanding() == 0) break;
      const std::uint64_t wake =
          i < ops.size() ? start + ops[i].due_ns : t + 2'000'000;
      if (!wait(ps, t, end, wake > t ? wake - t : 0)) break;
    }
    finish_phase();
    return ps;
  }

  /// Closed loop: keeps `window` load requests in flight, drawing keys,
  /// sites and the mix from `ops` in order (their due times are ignored),
  /// for `seconds`. Returns the ops completed per second in that time.
  double run_closed(const std::vector<Op>& ops, std::size_t window,
                    double seconds, PhaseSamples& ps) {
    cur_ = &ps;
    probe_ = false;
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    const std::size_t done_before = ps.all.size();
    double rate = 0;
    std::size_t i = 0;
    while (true) {
      const std::uint64_t t = now_ns();
      if (rate == 0 && t >= end) {
        rate = static_cast<double>(ps.all.size() - done_before) * 1e9 /
               static_cast<double>(t - start);
      }
      for (; rate == 0 && i < ops.size() && pipe_.outstanding() < window; ++i) {
        send_op(ops[i], t, t);
      }
      pipe_.flush();
      if (rate > 0 && pipe_.outstanding() == 0) break;
      if (rate == 0 && i == ops.size()) {
        violation("the closed-loop op stream ran out before its time did");
        break;
      }
      if (!wait(ps, t, end, rate > 0 ? 2'000'000 : end - t)) break;
    }
    finish_phase();
    return rate;
  }

  /// Waits until every site covers every other site's frontier, i.e. all
  /// propagation a phase started has been applied everywhere. Run after each
  /// closed-loop slice so its backlog does not leak into the next one.
  bool settle() {
    for (std::uint32_t s = 0; s < kSites; ++s) {
      for (std::uint32_t t = 0; t < kSites; ++t) {
        if (s == t) continue;
        Tag tag;
        tag.kind = Tag::kToken;
        tag.site = static_cast<std::uint8_t>(t);
        tag.check = true;
        pipe_.send(s, token_request(t), tag);
      }
    }
    return wait_idle();
  }

  /// After the load: propagation settles, the replicas of sampled keys
  /// agree, and no envelope is parked or malformed.
  void final_checks() {
    if (!settle()) return;
    ccpr::util::Rng rng(opts_.seed ^ 0xc0ffee);
    for (std::size_t i = 0; i < kConvergenceKeys; ++i) {
      const auto key = static_cast<std::uint32_t>(rng.below(keys_));
      for (std::uint32_t s = 0; s < kSites; ++s) {
        if (!replicated_at(key, s)) continue;
        Tag tag;
        tag.kind = Tag::kGet;
        tag.key = key;
        tag.site = static_cast<std::uint8_t>(s);
        tag.check = true;
        pipe_.send(s, get_request(key), tag);
      }
    }
    for (std::uint32_t s = 0; s < kSites; ++s) {
      Tag tag;
      tag.kind = Tag::kEngineStat;
      tag.site = static_cast<std::uint8_t>(s);
      tag.check = true;
      pipe_.send(s, engine_stat_request(), tag);
    }
    if (!wait_idle()) return;
    for (const auto& [key, vals] : replica_values_) {
      std::optional<std::string> first;
      for (std::uint32_t s = 0; s < kSites; ++s) {
        if (!replicated_at(key, s)) continue;
        if (!first) {
          first = vals[s];
        } else if (*first != vals[s]) {
          violation("replicas of key " + std::to_string(key) +
                    " disagree after drain");
        }
      }
    }
  }

  void set_keys(std::uint32_t keys) { keys_ = keys; }
  /// Self-test of the checker: corrupt one get value after set-up.
  void inject_corrupt_read() { inject_ = true; }

 private:
  bool wait_idle() {
    const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
    while (pipe_.outstanding() > 0) {
      if (!pipe_.poll(1'000'000) || now_ns() > deadline) {
        violation("final checks timed out");
        return false;
      }
    }
    return true;
  }

  void send_op(const Op& op, std::uint64_t due, std::uint64_t sent) {
    Tag tag;
    tag.kind = op.put ? Tag::kPut : Tag::kGet;
    tag.key = op.key;
    tag.site = op.site;
    tag.due_ns = due;
    tag.ref_ns = sent;
    if (op.put) {
      tag.counter = put_key_.size();
      put_key_.push_back(op.key);
      put_writer_.push_back(op.site);
      pipe_.send(op.site, put_request(op.key, encode_value(op.key, op.site, tag.counter)), tag);
    } else {
      pipe_.send(op.site, get_request(op.key), tag);
    }
    ++cur_->attempted;
  }

  /// Polls for responses for up to `timeout_ns`. False when the phase must
  /// end: a connection broke, or requests are still outstanding 15 s after
  /// the phase's last send (they count as failed).
  bool wait(PhaseSamples& ps, std::uint64_t now, std::uint64_t end,
            std::uint64_t timeout_ns) {
    if (now > end + 15'000'000'000ULL) {
      violation("requests still outstanding 15 s after the phase ended");
      ps.failed += pipe_.outstanding();
      return false;
    }
    if (!pipe_.poll(timeout_ns)) {
      violation("a client connection broke");
      return false;
    }
    return true;
  }

  void finish_phase() {
    cur_ = nullptr;
    spans_ = nullptr;
  }

  void violation(std::string msg) {
    if (res_.violations.size() < 20) res_.violations.push_back(std::move(msg));
  }

  void fail_op(const Tag& tag) {
    if (tag.check) {
      if (tag.kind == Tag::kPut) ++preload_failures_;
      violation("check request failed");
      return;
    }
    if (cur_) ++cur_->failed;
  }

  void record(const Tag& tag, std::vector<double>& v, std::uint64_t recv) {
    const double us = static_cast<double>(recv - tag.due_ns) / 1e3;
    v.push_back(us);
    cur_->all.push_back(us);
    if (spans_) {  // one span per request: kind, due, sent, received
      spans_->insert(spans_->end(), {tag.kind, tag.due_ns, tag.ref_ns, recv});
    }
  }

  void check_value(std::uint32_t key, std::string data) {
    if (inject_ && !data.empty()) {
      inject_ = false;
      data[data.size() / 2] ^= 0x20;
    }
    if (data.empty()) return;  // the initial value
    const auto d = decode_value(data);
    bool ok = d && d->key == key;
    if (ok && d->writer == kPreloadWriter) {
      ok = d->counter == key;
    } else if (ok) {
      ok = d->counter < put_key_.size() && put_key_[d->counter] == key &&
           put_writer_[d->counter] == d->writer;
    }
    if (!ok) {
      violation("get of key " + std::to_string(key) +
                " returned a value the benchmark never wrote to it: " +
                (d ? "key " + std::to_string(d->key) + " writer " +
                         std::to_string(d->writer) + " counter " +
                         std::to_string(d->counter)
                   : "undecodable"));
    }
  }

  void on_response(const Tag& tag, ccpr::net::Decoder& body, std::uint64_t recv) {
    const auto st = static_cast<ClientStatus>(body.u8());
    if (!body.ok() || st != ClientStatus::kOk) {
      if (tag.kind == Tag::kToken || tag.kind == Tag::kCovered) {
        if (probes_ > 0 && !tag.check) --probes_;
      }
      fail_op(tag);
      return;
    }
    switch (tag.kind) {
      case Tag::kPut: {
        body.varint();
        body.varint();
        body.varint();
        if (!body.ok()) return fail_op(tag);
        if (tag.check) return;
        record(tag, cur_->put, recv);
        if (probe_ && replicated_at(tag.key, kProbeSite) &&
            tag.site != kProbeSite && probes_ < kMaxProbes) {
          Tag t = tag;
          t.kind = Tag::kToken;
          t.ref_ns = recv;
          ++probes_;
          ++cur_->attempted;
          pipe_.send(tag.site, token_request(kProbeSite), t);
        }
        return;
      }
      case Tag::kGet: {
        const ccpr::causal::Value v = ccpr::causal::decode_value(body);
        if (!body.ok()) return fail_op(tag);
        check_value(tag.key, v.data);
        if (tag.check) {
          replica_values_[tag.key][tag.site] = v.data;
          return;
        }
        record(tag, replicated_at(tag.key, tag.site) ? cur_->get : cur_->remote_get, recv);
        if (!replicated_at(tag.key, tag.site)) cur_->get.push_back(cur_->remote_get.back());
        return;
      }
      case Tag::kToken: {
        const std::string token = body.bytes();
        if (!body.ok()) return fail_op(tag);
        Tag t = tag;
        t.kind = Tag::kCovered;
        if (tag.check) {
          // tag.site is the target the token was minted for.
          pipe_.send(tag.site, covered_request(token, 5 * kCoveredWaitUs), t);
        } else {
          pipe_.send(kProbeConn, covered_request(token, kCoveredWaitUs), t);
        }
        return;
      }
      case Tag::kCovered: {
        const std::uint8_t covered = body.u8();
        if (tag.check) {
          if (!body.ok() || covered != 1) {
            violation("a site did not cover a peer's frontier after drain");
          }
          return;
        }
        if (probes_ > 0) --probes_;
        if (!body.ok() || covered != 1) return fail_op(tag);
        if (cur_) {
          cur_->visibility.push_back(static_cast<double>(recv - tag.ref_ns) / 1e3);
        }
        return;
      }
      case Tag::kEngineStat: {
        body.varint();  // shards
        const std::uint64_t parked = body.varint();
        const std::uint64_t malformed = body.varint();
        if (!body.ok() || parked != 0 || malformed != 0) {
          violation("site " + std::to_string(tag.site) +
                    " reports parked or malformed shard envelopes");
        }
        return;
      }
      case Tag::kEcho:
        return;
    }
  }

  Pipe& pipe_;
  const RunOptions& opts_;
  E2EResult& res_;
  std::uint32_t keys_ = 1;
  std::vector<std::uint32_t> put_key_;  ///< by write counter
  std::vector<std::uint8_t> put_writer_;
  PhaseSamples* cur_ = nullptr;
  std::vector<std::uint64_t>* spans_ = nullptr;
  bool probe_ = false;
  std::size_t probes_ = 0;
  std::uint64_t preload_failures_ = 0;
  bool inject_ = false;  ///< corrupt the next non-empty get value
  std::map<std::uint32_t, std::array<std::string, kSites>> replica_values_;
};

void add_phase(E2EResult& res, const PhaseSamples& ps) {
  res.attempted += ps.attempted;
  res.failed += ps.failed;
}

void merge_into(PhaseSamples& into, const PhaseSamples& ps) {
  using Field = std::vector<double> PhaseSamples::*;
  for (const Field v : {&PhaseSamples::put, &PhaseSamples::get, &PhaseSamples::remote_get,
                        &PhaseSamples::visibility, &PhaseSamples::lag, &PhaseSamples::all}) {
    (into.*v).insert((into.*v).end(), (ps.*v).begin(), (ps.*v).end());
  }
  into.attempted += ps.attempted;
  into.failed += ps.failed;
}

}  // namespace

E2EResult run_e2e(const RunOptions& opts) {
  E2EResult res;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // ns-accurate open-loop sends
  const WorkloadSpec& spec = opts.spec;
  const std::uint32_t keys = opts.tiny ? std::min<std::uint32_t>(spec.keys, 2048) : spec.keys;
  const double rate = opts.tiny ? std::min(spec.rate_ops_s, 1000.0) : spec.rate_ops_s;
  const double warm_s = opts.tiny ? 0.1 : 0.5;
  const int setups = opts.trace ? 1 : 5;

  WorkloadSpec gen_spec = spec;
  gen_spec.keys = keys;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  hash ^= keys;
  const auto warm_ops = make_ops(gen_spec, opts.seed ^ 0x77a4, rate, warm_s);
  hash = hash_ops(warm_ops, hash);

  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Pipe> pipe;
  std::unique_ptr<LoadClient> client;
  for (int rep = 0; rep < setups; ++rep) {
    client.reset();
    pipe.reset();
    cluster.reset();
    const std::string data_root =
        opts.work_dir + "/data-" + std::to_string(rep);
    if (spec.durable) {
      std::filesystem::remove_all(data_root);
      std::filesystem::create_directories(data_root);
    }
    const std::uint64_t t0 = now_ns();
    cluster = std::make_unique<Cluster>(spec, keys, data_root);
    if (!cluster->start()) {
      res.violations.push_back("cluster failed to start");
      return res;
    }
    pipe = std::make_unique<Pipe>(cluster->client_ports());
    if (!pipe->ok()) {
      res.violations.push_back("could not connect to the cluster");
      return res;
    }
    client = std::make_unique<LoadClient>(*pipe, opts, res);
    client->set_keys(keys);
    // Set-up ends once the preload has propagated to every replica; the
    // warm-up after it runs for a fixed time, so it is not counted.
    if (!client->preload(keys) || !client->settle()) return res;
    res.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (rep == 0) res.rss_mb = rss_mb();
    const PhaseSamples warm = client->run_phase(warm_ops, true, nullptr);
    add_phase(res, warm);
  }

  if (opts.inject_corrupt_read) client->inject_corrupt_read();

  // Trace runs alternate untraced and traced fixed-rate slices (their
  // difference is the tracing overhead) and leave 70% of the window to the
  // layer replays. Plain runs interleave: each of kCycles cycles is one
  // fixed-rate slice (60% of the window in all) followed by one closed-loop
  // slice (30%), so a transient slowdown of the host lands on both
  // measurements alike instead of on one of them.
  if (opts.trace) {
    const double slice_s = opts.seconds * 0.075;
    std::vector<std::uint64_t> spans;
    for (int slice = 0; slice < 4; ++slice) {
      const auto ops = make_ops(gen_spec, opts.seed * 31 + static_cast<std::uint64_t>(slice), rate, slice_s);
      hash = hash_ops(ops, hash);
      const bool traced = slice % 2 == 1;
      PhaseSamples ps = client->run_phase(ops, true, traced ? &spans : nullptr);
      add_phase(res, ps);
      merge_into(traced ? res.traced : res.fixed, ps);
    }
    // Client-side spans (kind, due, sent, received) kept in memory during
    // the traced slices and written out once at the end.
    if (FILE* f = std::fopen((opts.work_dir + "/client_spans.bin").c_str(), "wb")) {
      std::fwrite(spans.data(), sizeof(std::uint64_t), spans.size(), f);
      std::fclose(f);
    }
  } else {
    constexpr int kCycles = 10;
    const double slice_s = opts.seconds * 0.6 / kCycles;
    const double closed_s = opts.seconds * 0.3 / kCycles;
    std::vector<double> peaks;
    HostProbe probe;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const auto c = static_cast<std::uint64_t>(cycle);
      const auto ops = make_ops(gen_spec, opts.seed * 31 + c, rate, slice_s);
      hash = hash_ops(ops, hash);
      probe.start(&res.probe_rtt_us);
      const PhaseSamples ps = client->run_phase(ops, true, nullptr);
      probe.stop();
      add_phase(res, ps);
      merge_into(res.fixed, ps);
      const auto closed_ops = make_ops(gen_spec, opts.seed * 1000 + c, kClosedStreamRate, closed_s);
      hash = hash_ops(closed_ops, hash);
      PhaseSamples closed;
      peaks.push_back(client->run_closed(closed_ops, kClosedWindow, closed_s, closed));
      add_phase(res, closed);
      // The closed slice leaves propagation behind; let it finish before
      // the next fixed-rate slice.
      if (!client->settle()) break;
    }
    res.peak_ops_s = median(peaks);
  }
  res.ops_hash = hash;
  client->final_checks();
  client.reset();
  pipe.reset();
  cluster.reset();
  if (spec.durable) {
    for (int rep = 0; rep < setups; ++rep) {
      std::filesystem::remove_all(opts.work_dir + "/data-" + std::to_string(rep));
    }
  }
  return res;
}

}  // namespace perfbench
