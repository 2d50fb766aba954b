#include "layers.hpp"

#include <sys/prctl.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "causal/factory.hpp"
#include "causal/value_codec.hpp"
#include "loadgen.hpp"
#include "metrics/metrics.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/tcp_transport.hpp"
#include "server/client_protocol.hpp"
#include "server/cluster_config.hpp"
#include "server/sharded_engine.hpp"
#include "server/wal.hpp"
#include "store/engine/value_engine.hpp"

namespace perfbench {
namespace {

using ccpr::causal::IProtocol;
using ccpr::net::Message;
using ccpr::net::MsgKind;

constexpr std::uint32_t kNoOp = 0xffffffffu;

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::uint64_t elapsed(std::uint64_t t0) { return now_ns() - t0; }

// ---------------------------------------------------------------- net ---

/// Echo RTT: the same generator and rate against a Reactor whose handler
/// answers every frame at once with a response of the real size.
std::vector<double> reactor_echo(const std::vector<Op>& ops) {
  std::uint16_t port = 0;
  ccpr::net::Socket listener = ccpr::net::tcp_listen("127.0.0.1", 0, &port);
  ccpr::net::Reactor* self = nullptr;
  ccpr::net::Encoder put_resp;
  put_resp.u8(0);
  put_resp.varint(1);
  put_resp.varint(1);
  put_resp.varint(1);
  ccpr::net::Encoder get_resp;
  get_resp.u8(0);
  ccpr::causal::encode_value(
      get_resp, ccpr::causal::Value{{0, 1}, 1, encode_value(0, 0, 0)});
  const auto put_body = put_resp.take();
  const auto get_body = get_resp.take();
  ccpr::net::Reactor reactor(
      std::move(listener), ccpr::net::Reactor::Options{},
      [&](const ccpr::net::Reactor::ConnRef& ref,
          std::vector<std::uint8_t> body) {
        const bool put = !body.empty() &&
                         body[0] == static_cast<std::uint8_t>(
                                        ccpr::server::ClientOp::kPut);
        self->send_response(ref, put ? put_body : get_body);
      });
  self = &reactor;
  std::vector<double> rtt;
  if (!reactor.start()) return rtt;
  {
    Pipe pipe(std::vector<std::uint16_t>(kSites, port));
    if (!pipe.ok()) return rtt;
    pipe.set_handler([&](std::size_t, const Tag& tag, ccpr::net::Decoder&,
                         std::uint64_t recv) {
      rtt.push_back(static_cast<double>(recv - tag.due_ns) / 1e3);
    });
    const std::uint64_t start = now_ns() + 200'000;
    std::size_t i = 0;
    while (i < ops.size() || pipe.outstanding() > 0) {
      const std::uint64_t t = now_ns();
      while (i < ops.size() && start + ops[i].due_ns <= t) {
        Tag tag;
        tag.kind = Tag::kEcho;
        tag.due_ns = start + ops[i].due_ns;
        pipe.send(ops[i].site,
                  ops[i].put ? put_request(ops[i].key, encode_value(ops[i].key, 0, i))
                             : get_request(ops[i].key),
                  tag);
        ++i;
      }
      pipe.flush();
      const std::uint64_t wake =
          i < ops.size() ? start + ops[i].due_ns : t + 2'000'000;
      if (!pipe.poll(wake > t ? wake - t : 0)) break;
    }
  }
  reactor.stop();
  return rtt;
}

struct TransportResult {
  std::vector<double> oneway_us;
  double msgs_per_batch = 0;
  double bytes_per_update = 0;
};

/// One-way delay over a TcpTransport link: update-sized messages sent at
/// the workload's put rate, timed from send() to the sink's delivery.
TransportResult transport_oneway(const std::vector<std::size_t>& sizes,
                                 double rate, double seconds,
                                 std::uint64_t seed) {
  struct Sink : ccpr::net::IMessageSink {
    std::vector<double> us;
    std::atomic<std::uint64_t> n{0};
    void deliver(Message m) override {
      std::uint64_t sent = 0;
      if (m.body.size() >= 8) std::memcpy(&sent, m.body.data(), 8);
      us.push_back(static_cast<double>(now_ns() - sent) / 1e3);
      n.fetch_add(1, std::memory_order_release);
    }
  } sink, drop;
  TransportResult res;
  ccpr::metrics::Metrics ma;
  ccpr::metrics::Metrics mb;
  // The receiver drops frames from sites it does not list as peers; it
  // never sends, so the listed port is never dialed.
  std::uint16_t unused_port = 0;
  ccpr::net::Socket reserve = ccpr::net::tcp_listen("127.0.0.1", 0, &unused_port);
  ccpr::net::TcpTransport::Options ob;
  ob.self = 1;
  ob.peers.push_back({0, "127.0.0.1", unused_port});
  ccpr::net::TcpTransport b(ob, mb);
  b.connect(1, &sink);
  if (!b.start()) return res;
  ccpr::net::TcpTransport::Options oa;
  oa.self = 0;
  oa.peers.push_back({1, "127.0.0.1", b.listen_port()});
  ccpr::net::TcpTransport a(oa, ma);
  a.connect(0, &drop);
  if (!a.start()) {
    b.stop();
    return res;
  }
  ccpr::util::Rng rng(seed ^ 0x7a45);
  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t = start;
  std::uint64_t sent = 0;
  while (t < end) {
    sleep_until_ns(t);
    Message m;
    m.kind = MsgKind::kUpdate;
    m.src = 0;
    m.dst = 1;
    const std::size_t size = std::max<std::size_t>(8, sizes.empty() ? 96 : sizes[sent % sizes.size()]);
    m.body.assign(size, 0x5a);
    const std::uint64_t stamp = now_ns();
    std::memcpy(m.body.data(), &stamp, 8);
    a.send(std::move(m));
    ++sent;
    t += static_cast<std::uint64_t>(rng.exponential(1e9 / rate));
  }
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (sink.n.load(std::memory_order_acquire) < sent && now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (const auto& p : a.peer_stats()) {
    if (p.site != 1 || p.msgs_sent == 0) continue;
    res.msgs_per_batch = static_cast<double>(p.msgs_sent) /
                         static_cast<double>(std::max<std::uint64_t>(1, p.batches_sent));
    res.bytes_per_update = static_cast<double>(p.bytes_sent) /
                           static_cast<double>(p.msgs_sent);
  }
  a.stop();
  b.stop();
  res.oneway_us = std::move(sink.us);
  return res;
}

// ------------------------------------------------------ server/causal ---

/// Bench-side decorator: times every protocol entry point and forwards.
/// Runs only on its shard's apply thread, except the op FIFO, which the
/// replay thread fills.
class TracedProtocol final : public IProtocol {
 public:
  struct Stats {
    std::vector<double> write_ns, read_ns, apply_ns, fetch_resp_ns;
    std::uint64_t reads = 0;
    std::uint64_t remote_reads = 0;
    std::uint64_t pending_peak = 0;
    std::uint64_t msgs = 0;
    std::uint64_t ctrl_bytes = 0;
    std::vector<std::size_t> update_sizes;
    std::vector<double> wrap_ns;
    std::uint64_t wraps = 0;
    std::uint64_t envelope_bytes = 0;
  };

  TracedProtocol(std::uint32_t site, std::vector<double>* proto_ns,
                 const std::atomic<bool>* measuring)
      : site_(site), proto_ns_(proto_ns), measuring_(measuring) {}

  void adopt(std::unique_ptr<IProtocol> inner) { inner_ = std::move(inner); }
  Stats& stats() { return stats_; }

  /// Replay thread: the next client command on this shard is op `idx`.
  void expect(std::uint32_t idx) {
    std::lock_guard lk(mu_);
    fifo_.push_back(idx);
  }

  void write(ccpr::causal::VarId x, std::string data) override {
    const std::uint64_t t0 = now_ns();
    inner_->write(x, std::move(data));
    const auto dt = static_cast<double>(elapsed(t0));
    const std::uint32_t idx = next_op();
    if (on()) stats_.write_ns.push_back(dt);
    if (idx != kNoOp) (*proto_ns_)[idx] = dt;
  }
  void read(ccpr::causal::VarId x, ccpr::causal::ReadContinuation k) override {
    const std::uint64_t t0 = now_ns();
    inner_->read(x, std::move(k));
    const auto dt = static_cast<double>(elapsed(t0));
    const std::uint32_t idx = next_op();
    if (on()) {
      ++stats_.reads;
      if (!replicated_at(x, site_)) {
        ++stats_.remote_reads;
      } else {
        stats_.read_ns.push_back(dt);
      }
    }
    if (idx != kNoOp) (*proto_ns_)[idx] = dt;
  }
  void on_message(const Message& msg) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_message(msg);
    const auto dt = static_cast<double>(elapsed(t0));
    if (!on()) return;
    if (msg.kind == MsgKind::kUpdate) stats_.apply_ns.push_back(dt);
    if (msg.kind == MsgKind::kFetchResp) stats_.fetch_resp_ns.push_back(dt);
    stats_.pending_peak = std::max<std::uint64_t>(
        stats_.pending_peak, inner_->pending_update_count());
  }
  ccpr::causal::WriteId last_write_id() const override {
    return inner_->last_write_id();
  }
  const ccpr::causal::Value& peek(ccpr::causal::VarId x) const override {
    return inner_->peek(x);
  }
  std::vector<std::uint8_t> coverage_token(ccpr::causal::SiteId t) override {
    return inner_->coverage_token(t);
  }
  bool covered_by(const std::vector<std::uint8_t>& token) override {
    return inner_->covered_by(token);
  }
  void serialize_state(ccpr::net::Encoder& enc) const override {
    inner_->serialize_state(enc);
  }
  bool restore_state(ccpr::net::Decoder& dec) override {
    return inner_->restore_state(dec);
  }
  void replay_meta_merge(ccpr::causal::VarId x, ccpr::causal::SiteId r,
                         const std::uint8_t* data, std::size_t len) override {
    inner_->replay_meta_merge(x, r, data, len);
  }
  void merge_all_local_meta() override { inner_->merge_all_local_meta(); }
  void on_durable_checkpoint(std::uint64_t gen) override {
    inner_->on_durable_checkpoint(gen);
  }
  ccpr::store::EngineStats store_stats() const override {
    return inner_->store_stats();
  }
  std::size_t pending_update_count() const override {
    return inner_->pending_update_count();
  }
  std::uint64_t log_entry_count() const override {
    return inner_->log_entry_count();
  }
  std::uint64_t meta_state_bytes() const override {
    return inner_->meta_state_bytes();
  }
  ccpr::causal::Algorithm algorithm() const override {
    return inner_->algorithm();
  }

 private:
  bool on() const { return measuring_->load(std::memory_order_relaxed); }
  std::uint32_t next_op() {
    std::lock_guard lk(mu_);
    if (fifo_.empty()) return kNoOp;
    const std::uint32_t idx = fifo_.front();
    fifo_.pop_front();
    return idx;
  }

  std::uint32_t site_;
  std::vector<double>* proto_ns_;
  const std::atomic<bool>* measuring_;
  std::unique_ptr<IProtocol> inner_;
  Stats stats_;
  std::mutex mu_;
  std::deque<std::uint32_t> fifo_;
};

/// Stands in for the TCP transport between the engine harness's sites: one
/// delivery thread per site, like TcpTransport's, so an apply thread never
/// calls into another site's engine.
class LoopbackNet {
 public:
  explicit LoopbackNet(std::vector<ccpr::server::ShardedEngine*> sites)
      : sites_(std::move(sites)), inboxes_(sites_.size()) {
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      inboxes_[s].thread = std::thread([this, s] { loop(s); });
    }
  }
  ~LoopbackNet() {
    for (auto& in : inboxes_) {
      {
        std::lock_guard lk(in.mu);
        in.stop = true;
      }
      in.cv.notify_one();
    }
    for (auto& in : inboxes_) in.thread.join();
  }
  LoopbackNet(const LoopbackNet&) = delete;
  LoopbackNet& operator=(const LoopbackNet&) = delete;

  void send(Message m) {
    Inbox& in = inboxes_[m.dst];
    {
      std::lock_guard lk(in.mu);
      in.q.push_back(std::move(m));
    }
    in.cv.notify_one();
  }

 private:
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> q;
    bool stop = false;
    std::thread thread;
  };
  void loop(std::size_t s) {
    Inbox& in = inboxes_[s];
    while (true) {
      std::unique_lock lk(in.mu);
      in.cv.wait(lk, [&] { return in.stop || !in.q.empty(); });
      if (in.q.empty()) return;
      Message m = std::move(in.q.front());
      in.q.pop_front();
      lk.unlock();
      sites_[s]->deliver(std::move(m));
    }
  }

  std::vector<ccpr::server::ShardedEngine*> sites_;
  std::deque<Inbox> inboxes_;
};

struct EngineResult {
  std::vector<double> op_us, put_op_us, queue_wait_us;
  std::uint64_t queue_peak = 0;
  std::uint64_t producer_waits = 0;
  double shard_imbalance = 1;
  TracedProtocol::Stats causal;  ///< merged over every site and shard
  double meta_state_bytes = 0;   ///< per site
  std::string checkpoint_payload;  ///< site 0's serialized state
  std::size_t incomplete = 0;
};

/// Three sites of ShardedEngine + decorated opt-track protocols, wired the
/// way SiteServer wires them, fed the workload's op stream at its rate.
EngineResult engine_cluster(const RunOptions& opts, const WorkloadSpec& spec,
                            const std::vector<Op>& ops) {
  EngineResult res;
  const std::uint32_t shards = spec.shards;
  const auto rmap =
      ccpr::server::ClusterConfig::loopback(kSites, spec.keys, kReplicas, 0)
          .replica_map();
  const std::uint32_t preload = spec.keys;
  std::vector<double> proto_ns(ops.size(), -1);
  std::atomic<bool> measuring{false};
  std::vector<std::unique_ptr<ccpr::server::ShardedEngine>> engines;
  std::vector<std::vector<TracedProtocol*>> traced(kSites);
  std::unique_ptr<LoopbackNet> net;
  const std::string data_root = opts.work_dir + "/engine-wal";
  if (spec.durable) {
    std::filesystem::remove_all(data_root);
    std::filesystem::create_directories(data_root);
  }
  for (std::uint32_t s = 0; s < kSites; ++s) {
    engines.push_back(std::make_unique<ccpr::server::ShardedEngine>(
        shards, s, kSites, ccpr::server::ProtocolEngine::Options{}));
  }
  std::vector<ccpr::server::ShardedEngine*> raw;
  for (auto& e : engines) raw.push_back(e.get());
  net = std::make_unique<LoopbackNet>(raw);
  for (std::uint32_t s = 0; s < kSites; ++s) {
    ccpr::server::ShardedEngine* eng = engines[s].get();
    eng->set_transport_send([n = net.get()](Message m) { n->send(std::move(m)); });
    for (std::uint32_t k = 0; k < shards; ++k) {
      auto tp = std::make_unique<TracedProtocol>(s, &proto_ns, &measuring);
      TracedProtocol* t = tp.get();
      traced[s].push_back(t);
      ccpr::server::Durability::Options d;
      if (spec.durable) {
        d.data_dir = data_root + "/site-" + std::to_string(s) +
                     (k == 0 ? "" : "/shard-" + std::to_string(k));
        if (k == 0) std::filesystem::create_directories(d.data_dir);
      }
      d.wal_sync = ccpr::server::Wal::Sync::kBatch;
      d.self = s;
      d.sites = kSites;
      d.wrap_update = [eng, k, t, &measuring](Message m) {
        const std::size_t inner = m.body.size();
        const std::uint64_t t0 = now_ns();
        Message w = eng->wrap(k, std::move(m));
        const auto dt = static_cast<double>(elapsed(t0));
        if (measuring.load(std::memory_order_relaxed)) {
          t->stats().wrap_ns.push_back(dt);
          ++t->stats().wraps;
          t->stats().envelope_bytes += w.body.size() - std::min(w.body.size(), inner);
        }
        return w;
      };
      eng->shard(k).configure_durability(
          d, [eng, k](Message m) { eng->wrap_and_send(k, std::move(m)); });
      ccpr::causal::Services svc;
      svc.send = [eng, k, t, &measuring](Message m) {
        if (measuring.load(std::memory_order_relaxed)) {
          auto& st = t->stats();
          ++st.msgs;
          st.ctrl_bytes += m.control_bytes();
          if (m.kind == MsgKind::kUpdate && st.update_sizes.size() < 4096) {
            st.update_sizes.push_back(m.body.size());
          }
        }
        eng->shard(k).protocol_send(std::move(m));
      };
      svc.persist_meta_merge = [eng, k](ccpr::causal::VarId x,
                                        ccpr::causal::SiteId r,
                                        const std::uint8_t* data,
                                        std::size_t len) {
        eng->shard(k).persist_meta_merge(x, r, data, len);
      };
      svc.now = [] { return static_cast<ccpr::sim::SimTime>(now_ns() / 1000); };
      svc.metrics = eng->shard_metrics(k);
      ccpr::causal::ProtocolOptions popts;
      popts.convergent = true;
      popts.write_seq_offset = k;
      popts.write_seq_stride = shards;
      t->adopt(ccpr::causal::make_protocol(ccpr::causal::Algorithm::kOptTrack,
                                           s, rmap, std::move(svc), popts));
      eng->shard(k).adopt_protocol(std::move(tp), eng->shard_metrics(k));
    }
    eng->install_hooks();
  }
  for (std::uint32_t s = 0; s < kSites; ++s) {
    for (std::uint32_t k = 0; k < shards; ++k) {
      std::string err;
      if (!engines[s]->shard(k).recover(&err)) ++res.incomplete;
      engines[s]->publish_tokens(k, *traced[s][k]);
    }
    engines[s]->start_all();
  }

  auto shard_of = [&](std::uint32_t key) {
    return engines[0]->shard_map().shard_of(key);
  };
  // Preload every key at its first replica, like the end-to-end set-up.
  std::atomic<std::uint64_t> preloaded{0};
  for (std::uint32_t key = 0; key < preload; ++key) {
    const std::uint32_t site = key % kSites;
    traced[site][shard_of(key)]->expect(kNoOp);
    engines[site]->async_write(key, encode_value(key, kPreloadWriter, key), true,
                               [&preloaded](auto) {
                                 preloaded.fetch_add(1, std::memory_order_release);
                               });
    while (key + 1 - preloaded.load(std::memory_order_acquire) > 256) {
      std::this_thread::yield();
    }
  }
  while (preloaded.load(std::memory_order_acquire) < preload) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  // Open-loop replay of the op stream; callbacks stamp completion times.
  std::vector<std::uint64_t> submit(ops.size(), 0);
  std::vector<std::uint64_t> done(ops.size(), 0);
  std::atomic<std::uint64_t> completed{0};
  measuring.store(true);
  const std::uint64_t start = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    sleep_until_ns(start + op.due_ns);
    const auto idx = static_cast<std::uint32_t>(i);
    traced[op.site][shard_of(op.key)]->expect(idx);
    submit[i] = now_ns();
    auto finish = [&done, &completed, idx](bool) {
      done[idx] = now_ns();
      completed.fetch_add(1, std::memory_order_release);
    };
    if (op.put) {
      engines[op.site]->async_write(
          op.key, encode_value(op.key, op.site, i), replicated_at(op.key, op.site),
          [finish](auto r) { finish(r.has_value()); });
    } else {
      engines[op.site]->async_read(op.key,
                                   [finish](auto v) { finish(v.has_value()); });
    }
  }
  const std::uint64_t deadline = now_ns() + 10'000'000'000ULL;
  while (completed.load(std::memory_order_acquire) < ops.size() &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  res.incomplete = ops.size() - completed.load(std::memory_order_acquire);
  measuring.store(false);

  double imbalance_sum = 0;
  for (std::uint32_t s = 0; s < kSites; ++s) {
    std::uint64_t max_ops = 0;
    std::uint64_t total_ops = 0;
    for (const auto& q : engines[s]->queue_stats()) {
      res.queue_peak = std::max(res.queue_peak, q.peak_depth);
      res.producer_waits += q.producer_waits;
      max_ops = std::max(max_ops, q.enqueued_total());
      total_ops += q.enqueued_total();
    }
    imbalance_sum += total_ops == 0 ? 1.0
                                    : static_cast<double>(max_ops) * shards /
                                          static_cast<double>(total_ops);
  }
  res.shard_imbalance = imbalance_sum / kSites;
  for (auto& e : engines) e->stop_all();
  net.reset();

  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (done[i] == 0) continue;
    const double op_us = static_cast<double>(done[i] - submit[i]) / 1e3;
    res.op_us.push_back(op_us);
    if (ops[i].put) res.put_op_us.push_back(op_us);
    const bool remote_read = !ops[i].put && !replicated_at(ops[i].key, ops[i].site);
    if (!remote_read && proto_ns[i] >= 0) {
      res.queue_wait_us.push_back(op_us - proto_ns[i] / 1e3);
    }
  }
  auto append = [](auto& into, const auto& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  for (std::uint32_t s = 0; s < kSites; ++s) {
    std::uint64_t site_meta = 0;
    for (TracedProtocol* t : traced[s]) {
      auto& st = t->stats();
      auto& c = res.causal;
      append(c.write_ns, st.write_ns);
      append(c.read_ns, st.read_ns);
      append(c.apply_ns, st.apply_ns);
      append(c.fetch_resp_ns, st.fetch_resp_ns);
      append(c.wrap_ns, st.wrap_ns);
      append(c.update_sizes, st.update_sizes);
      c.reads += st.reads;
      c.remote_reads += st.remote_reads;
      c.pending_peak = std::max(c.pending_peak, st.pending_peak);
      c.msgs += st.msgs;
      c.ctrl_bytes += st.ctrl_bytes;
      c.wraps += st.wraps;
      c.envelope_bytes += st.envelope_bytes;
      site_meta += t->meta_state_bytes();
    }
    res.meta_state_bytes += static_cast<double>(site_meta) / kSites;
  }
  ccpr::net::Encoder enc;
  traced[0][0]->serialize_state(enc);
  res.checkpoint_payload.assign(enc.buffer().begin(), enc.buffer().end());
  engines.clear();
  if (spec.durable) std::filesystem::remove_all(data_root);
  return res;
}

// ----------------------------------------------------------------- WAL ---

struct WalResult {
  std::vector<double> append_us;
  std::vector<double> checkpoint_ms;
  double bytes_per_put = 0;
  double fsyncs_per_put = 0;
  std::uint64_t checkpoints = 0;
};

/// Each put of the stream as the WAL records it: the origin's kLocalWrite
/// and a replica's kPeerUpdate (update bodies as the protocol sent them),
/// with a checkpoint of the real serialized protocol state every
/// `checkpoint-every` (4096) records.
WalResult wal_replay(const RunOptions& opts, const std::vector<Op>& ops,
                     const std::vector<std::size_t>& update_sizes,
                     const std::string& checkpoint, double seconds) {
  WalResult res;
  const std::string dir = opts.work_dir + "/wal-replay";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ccpr::server::Wal::OpenResult opened;
  std::string err;
  auto wal = ccpr::server::Wal::open({dir, 0, ccpr::server::Wal::Sync::kBatch},
                                     &opened, &err);
  if (!wal) return res;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t puts = 0;
  std::uint64_t since_checkpoint = 0;
  // Cycles through the stream's puts until four checkpoint cycles are done
  // (or the time budget is spent), so every run crosses several checkpoints.
  for (std::size_t n = 0; !ops.empty() && now_ns() < end &&
                          res.checkpoint_ms.size() < 4;
       ++n) {
    const std::size_t i = n % ops.size();
    if (!ops[i].put) continue;
    ++puts;
    ccpr::net::Encoder local;
    local.varint(ops[i].key);
    local.bytes(encode_value(ops[i].key, ops[i].site, i));
    ccpr::net::Encoder peer;
    peer.varint((ops[i].site + 1) % kSites);
    peer.varint(1);
    peer.varint(puts);
    const std::size_t body =
        update_sizes.empty() ? 96 : update_sizes[puts % update_sizes.size()];
    peer.raw(std::string(body, 'u').data(), body);
    for (auto* rec : {&local, &peer}) {
      const auto type = rec == &local ? ccpr::server::Wal::kLocalWrite
                                      : ccpr::server::Wal::kPeerUpdate;
      const std::uint64_t t0 = now_ns();
      wal->append(type, std::string_view(reinterpret_cast<const char*>(rec->buffer().data()),
                                         rec->size()));
      res.append_us.push_back(static_cast<double>(elapsed(t0)) / 1e3);
      if (++since_checkpoint >= 4096) {
        const std::uint64_t c0 = now_ns();
        wal->checkpoint(checkpoint);
        res.checkpoint_ms.push_back(static_cast<double>(elapsed(c0)) / 1e6);
        since_checkpoint = 0;
      }
    }
  }
  const auto& st = wal->stats();
  if (puts > 0) {
    res.bytes_per_put = static_cast<double>(st.bytes_appended) / static_cast<double>(puts);
    res.fsyncs_per_put = static_cast<double>(st.fsyncs) / static_cast<double>(puts);
  }
  res.checkpoints = st.checkpoints;
  wal.reset();
  std::filesystem::remove_all(dir);
  return res;
}

// --------------------------------------------------------------- store ---

volatile std::uint64_t g_found_bytes = 0;

struct StoreResult {
  double put_ns = 0;
  double find_ns = 0;
  double probes_per_lookup = 0;
  double resident_bytes_per_key = 0;
};

/// The value engine the sites run (the config default), preloaded like the
/// cluster, then the stream's puts and gets in chunks timed as a whole.
StoreResult store_replay(const WorkloadSpec& spec, const std::vector<Op>& ops) {
  StoreResult res;
  auto engine = ccpr::store::make_engine(ccpr::store::EngineOptions{});
  for (std::uint32_t key = 0; key < spec.keys; ++key) {
    engine->put(key, {{kPreloadWriter, key}, 1, encode_value(key, kPreloadWriter, key)});
  }
  std::vector<std::uint32_t> put_keys;
  std::vector<ccpr::causal::Value> puts;
  std::vector<std::uint32_t> gets;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].put) {
      put_keys.push_back(ops[i].key);
      puts.push_back({{ops[i].site, i + 1}, i + 2, encode_value(ops[i].key, ops[i].site, i)});
    } else {
      gets.push_back(ops[i].key);
    }
  }
  constexpr std::size_t kChunk = 256;
  std::vector<double> put_chunks;
  for (std::size_t i = 0; i < puts.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, puts.size() - i);
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = i; j < i + n; ++j) engine->put(put_keys[j], std::move(puts[j]));
    put_chunks.push_back(static_cast<double>(elapsed(t0)) / static_cast<double>(n));
  }
  std::vector<double> find_chunks;
  std::uint64_t found_bytes = 0;
  for (std::size_t i = 0; i < gets.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, gets.size() - i);
    const std::uint64_t t0 = now_ns();
    for (std::size_t j = i; j < i + n; ++j) {
      const ccpr::causal::Value* v = engine->find(gets[j]);
      found_bytes += v ? v->data.size() : 0;
    }
    find_chunks.push_back(static_cast<double>(elapsed(t0)) / static_cast<double>(n));
  }
  g_found_bytes = found_bytes;  // keeps the lookups observable
  res.put_ns = median(put_chunks);
  res.find_ns = median(find_chunks);
  const auto st = engine->stats();
  res.probes_per_lookup = st.mean_probe_length();
  res.resident_bytes_per_key =
      st.keys == 0 ? 0 : static_cast<double>(st.resident_bytes) / static_cast<double>(st.keys);
  return res;
}

}  // namespace

std::vector<Metric> run_layers(const RunOptions& opts, const E2EResult& e2e,
                               std::vector<std::string>* problems) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  WorkloadSpec spec = opts.spec;
  if (opts.tiny) spec.keys = std::min<std::uint32_t>(spec.keys, 2048);
  const double rate = opts.tiny ? std::min(spec.rate_ops_s, 1000.0) : spec.rate_ops_s;
  const double put_rate = rate * (1 - spec.get_fraction);
  // The trace run's window after its end-to-end slices (30%).
  const double s = opts.seconds;
  const auto echo_ops = make_ops(spec, opts.seed * 7 + 1, rate, 0.1 * s);
  const auto engine_ops = make_ops(spec, opts.seed * 7 + 2, rate, 0.3 * s);

  const std::vector<double> echo = reactor_echo(echo_ops);
  const EngineResult eng = engine_cluster(opts, spec, engine_ops);
  const TransportResult tr =
      transport_oneway(eng.causal.update_sizes, put_rate, 0.1 * s, opts.seed);
  WalResult wal;
  if (spec.durable) {
    wal = wal_replay(opts, engine_ops, eng.causal.update_sizes,
                     eng.checkpoint_payload, 0.15 * s);
  }
  const StoreResult st = store_replay(spec, engine_ops);

  const auto& c = eng.causal;
  const double e2e_put = median(e2e.fixed.put);
  const double echo_p50 = quantile(echo, 0.5);
  std::vector<Metric> m = {
      {"net.reactor.echo_rtt_p50_us", echo_p50, "us"},
      {"net.reactor.echo_rtt_p99_us", quantile(echo, 0.99), "us"},
      {"net.transport.oneway_p50_us", quantile(tr.oneway_us, 0.5), "us"},
      {"net.transport.oneway_p99_us", quantile(tr.oneway_us, 0.99), "us"},
      {"net.transport.msgs_per_batch", tr.msgs_per_batch, "count"},
      {"net.transport.bytes_per_update", tr.bytes_per_update, "B"},
      {"server.engine.op_p50_us", quantile(eng.op_us, 0.5), "us"},
      {"server.engine.op_p99_us", quantile(eng.op_us, 0.99), "us"},
      {"server.engine.queue_wait_p50_us", quantile(eng.queue_wait_us, 0.5), "us"},
      {"server.engine.queue_peak_depth", static_cast<double>(eng.queue_peak), "count"},
      {"server.engine.producer_waits", static_cast<double>(eng.producer_waits), "count"},
      {"server.sharded.wrap_ns", median(c.wrap_ns), "ns"},
      {"server.sharded.envelope_bytes",
       c.wraps == 0 ? 0 : static_cast<double>(c.envelope_bytes) / static_cast<double>(c.wraps), "B"},
      {"server.sharded.shard_imbalance", eng.shard_imbalance, "ratio"},
      {"server.wal.append_p50_us", quantile(wal.append_us, 0.5), "us"},
      {"server.wal.append_p99_us", quantile(wal.append_us, 0.99), "us"},
      {"server.wal.checkpoint_ms", median(wal.checkpoint_ms), "ms"},
      {"server.wal.bytes_per_put", wal.bytes_per_put, "B"},
      {"server.wal.fsyncs_per_put", wal.fsyncs_per_put, "count"},
      {"server.wal.checkpoints", static_cast<double>(wal.checkpoints), "count"},
      {"causal.write_ns", median(c.write_ns), "ns"},
      {"causal.read_ns", median(c.read_ns), "ns"},
      {"causal.apply_ns", median(c.apply_ns), "ns"},
      {"causal.fetch_resp_ns", median(c.fetch_resp_ns), "ns"},
      {"causal.ctrl_bytes_per_msg",
       c.msgs == 0 ? 0 : static_cast<double>(c.ctrl_bytes) / static_cast<double>(c.msgs), "B"},
      {"causal.meta_state_bytes", eng.meta_state_bytes, "B"},
      {"causal.pending_peak", static_cast<double>(c.pending_peak), "count"},
      {"causal.remote_read_ratio",
       c.reads == 0 ? 0 : static_cast<double>(c.remote_reads) / static_cast<double>(c.reads), "ratio"},
      {"store.put_ns", st.put_ns, "ns"},
      {"store.find_ns", st.find_ns, "ns"},
      {"store.probes_per_lookup", st.probes_per_lookup, "count"},
      {"store.resident_bytes_per_key", st.resident_bytes_per_key, "B"},
      {"trace.put_residual_p50_us",
       e2e_put - (echo_p50 + quantile(eng.put_op_us, 0.5)), "us"},
      {"trace.overhead_pct",
       e2e_put > 0 ? 100.0 * (median(e2e.traced.put) - e2e_put) / e2e_put : 0, "%"},
  };
  if (echo.size() != echo_ops.size()) problems->push_back("reactor echo lost requests");
  if (tr.oneway_us.empty()) problems->push_back("transport delivered nothing");
  if (eng.incomplete > 0) problems->push_back("engine harness ops did not complete");
  return m;
}

}  // namespace perfbench
