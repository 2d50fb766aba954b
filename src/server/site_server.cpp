#include "server/site_server.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "causal/value_codec.hpp"
#include "server/metrics_text.hpp"
#include "util/assert.hpp"
#include "util/block_on.hpp"

namespace ccpr::server {

namespace {

sim::SimTime wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SiteServer::SiteServer(ClusterConfig config, causal::SiteId self)
    : SiteServer(std::move(config), self, Options{}) {}

SiteServer::SiteServer(ClusterConfig config, causal::SiteId self, Options opts)
    : config_(std::move(config)),
      self_(self),
      opts_(std::move(opts)),
      rmap_(config_.replica_map()) {
  CCPR_EXPECTS(self_ < config_.site_count());
  if (opts_.engine_shards.has_value()) {
    config_.protocol.engine_shards = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(*opts_.engine_shards, 256));
  }
  const std::uint32_t shards =
      std::max<std::uint32_t>(1, config_.protocol.engine_shards);

  net::TcpTransport::Options topts;
  topts.self = self_;
  topts.listen_host = config_.sites[self_].host;
  topts.listen_port = config_.sites[self_].peer_port;
  topts.jitter_seed = 0xcc9e0000u + self_;
  if (config_.sender_batch_bytes > 0) {
    topts.max_batch_bytes = config_.sender_batch_bytes;
  }
  if (config_.peer_queue_cap > 0) {
    topts.max_queue_msgs = config_.peer_queue_cap;
  }
  for (causal::SiteId s = 0; s < config_.site_count(); ++s) {
    if (s == self_) continue;
    topts.peers.push_back(net::TcpTransport::Peer{
        s, config_.sites[s].host, config_.sites[s].peer_port});
  }
  transport_ =
      std::make_unique<net::TcpTransport>(std::move(topts), transport_metrics_);
  transport_->connect(self_, this);

  ProtocolEngine::Options eopts;
  if (config_.engine_queue_cap > 0) {
    eopts.queue_capacity = config_.engine_queue_cap;
  }
  engine_ = std::make_unique<ShardedEngine>(shards, self_,
                                            config_.site_count(), eopts);
  engine_->set_transport_send(
      [this](net::Message m) { transport_->send(std::move(m)); });

  shard_protos_.resize(shards, nullptr);
  for (std::uint32_t k = 0; k < shards; ++k) {
    ProtocolEngine& eng = engine_->shard(k);

    Durability::Options dopts;
    // Shard 0 keeps the historic layout so an existing single-shard WAL
    // restarts in place; extra shards log in per-shard subdirectories.
    if (!opts_.data_dir.empty()) {
      dopts.data_dir = k == 0
                           ? opts_.data_dir
                           : opts_.data_dir + "/shard-" + std::to_string(k);
    }
    dopts.wal_sync = opts_.wal_sync;
    dopts.self = self_;
    dopts.sites = config_.site_count();
    if (config_.checkpoint_every > 0) {
      dopts.checkpoint_every = config_.checkpoint_every;
    }
    // Resend chunks must fit under the per-peer outbound queue cap, or the
    // queue's drop-oldest overflow policy discards the front of every chunk.
    if (config_.peer_queue_cap > 0) {
      dopts.catchup_burst = std::min<std::uint32_t>(
          dopts.catchup_burst,
          std::max<std::uint32_t>(config_.peer_queue_cap / 2, 1));
    }
    // Stamped updates are wrapped with cross-shard coverage tokens *before*
    // retention, so catch-up resends replay the original-send envelope
    // verbatim. Re-wrapping at resend time with current tokens could demand
    // coverage of writes parked behind the resent update at the receiver —
    // a cross-shard deadlock (see Durability::Options::wrap_update).
    dopts.wrap_update = [this, k](net::Message m) {
      return engine_->wrap(k, std::move(m));
    };
    // Durability forwards through the sharded wrapper: fresh sends get
    // wrapped here, already-wrapped retained resends pass through verbatim.
    eng.configure_durability(dopts, [this, k](net::Message m) {
      engine_->wrap_and_send(k, std::move(m));
    });

    causal::Services svc;
    // send runs on shard k's apply thread (from inside protocol calls);
    // schedule callbacks are marshalled back onto it as timer commands —
    // both sides of the Services re-entrancy contract are discharged by
    // that one apply thread. Sends route through the durability layer so
    // outbound updates get their durable channel stamps.
    svc.send = [this, k](net::Message m) {
      engine_->shard(k).protocol_send(std::move(m));
    };
    svc.persist_meta_merge = [this, k](causal::VarId x,
                                       causal::SiteId responder,
                                       const std::uint8_t* data,
                                       std::size_t len) {
      engine_->shard(k).persist_meta_merge(x, responder, data, len);
    };
    svc.now = [] { return wall_now_us(); };
    svc.schedule = [this, k](sim::SimTime delay, std::function<void()> fn) {
      timers_.schedule_after(delay, [this, k, fn = std::move(fn)] {
        engine_->shard(k).post_timer(fn);
      });
    };
    svc.metrics = engine_->shard_metrics(k);
    // Lock-free atomic read; safe from any apply thread at any point in
    // the server's lifetime (health_ is sized once, below).
    svc.peer_suspected = [this](causal::SiteId s) { return peer_suspected(s); };

    causal::ProtocolOptions popts = config_.protocol;
    if (opts_.store_engine.has_value()) {
      popts.store_engine.kind = *opts_.store_engine;
    }
    // The spill segment lives next to this site's WAL; without a data dir
    // there is nowhere durable to put it, so the budget degrades to
    // "never spill" rather than scribbling on the CWD.
    if (!opts_.data_dir.empty()) {
      popts.store_engine.spill_dir =
          opts_.data_dir + "/spill-site-" + std::to_string(self_);
    } else {
      popts.store_engine.spill_budget_bytes = 0;
    }
    // The ShardedEngine owns the sharding here; each inner protocol is a
    // plain single-shard instance (a nested ShardGroup would double-wrap).
    popts = causal::shard_protocol_options(std::move(popts), k, shards);
    auto proto = causal::make_protocol(config_.algorithm, self_, rmap_,
                                       std::move(svc), popts);
    shard_protos_[k] = proto.get();
    eng.adopt_protocol(std::move(proto), engine_->shard_metrics(k));
  }
  engine_->install_hooks();

  health_ = std::vector<PeerHealth>(config_.site_count());
  hb_interval_us_ = config_.heartbeat_interval_us > 0
                        ? config_.heartbeat_interval_us
                        : 250'000;
  suspect_floor_us_ =
      config_.suspect_after_us > 0 ? config_.suspect_after_us : 1'000'000;
}

SiteServer::~SiteServer() { stop(); }

bool SiteServer::start() {
  CCPR_EXPECTS(!started_);
  stopping_.store(false, std::memory_order_relaxed);
  // Recovery replays each shard's WAL on this thread before anything
  // concurrent exists; a failure means the durable state is unusable and
  // the operator must intervene (delete the WAL to restart empty). Shard 0
  // goes first: its WAL directory is the parent of the others.
  for (std::uint32_t k = 0; k < engine_->shards(); ++k) {
    std::string err;
    if (!engine_->shard(k).recover(&err)) {
      std::fprintf(stderr,
                   "ccpr_server: site %u shard %u recovery failed: %s\n",
                   self_, k, err.c_str());
      return false;
    }
  }
  // Publish every shard's post-recovery coverage tokens before any apply
  // thread (or peer delivery) exists: the first wrapped send must carry
  // tokens covering the recovered state, not an empty fresh-boot cache.
  for (std::uint32_t k = 0; k < engine_->shards(); ++k) {
    engine_->publish_tokens(k, *shard_protos_[k]);
  }
  // The engines must accept commands before the transport can deliver.
  engine_->start_all();
  if (!transport_->start()) {
    engine_->stop_all();
    return false;
  }
  timers_.start();
  for (std::uint32_t k = 0; k < engine_->shards(); ++k) {
    engine_->shard(k).post_catchup_tick();  // announce watermarks now
  }
  schedule_catchup_tick();
  // Arm the failure detector with a clean slate: no peer is suspected
  // until it has been silent for the full window from *this* start.
  hb_epoch_us_.store(static_cast<std::uint64_t>(wall_now_us()),
                     std::memory_order_relaxed);
  for (auto& h : health_) {
    h.last_ack_us.store(0, std::memory_order_relaxed);
    h.suspected.store(false, std::memory_order_relaxed);
  }
  schedule_heartbeat_tick();
  // Catch-up gate: a site restarting from a WAL answers clients only after
  // every peer has streamed the updates every shard missed (bounded by the
  // timeout — a dead peer must not wedge the restart forever).
  const std::uint32_t timeout_ms =
      config_.catchup_timeout_ms > 0 ? config_.catchup_timeout_ms : 2000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto r = report_now();
    if (!r || !r->site.catchup.recovered || r->site.catchup.complete ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  net::Socket listener = net::tcp_listen(config_.sites[self_].host,
                                         config_.sites[self_].client_port,
                                         &client_port_);
  if (!listener.valid()) {
    stop_core();
    return false;
  }
  net::Reactor::Options ropts;
  ropts.io_threads = kClientIoThreads;
  reactor_ = std::make_unique<net::Reactor>(
      std::move(listener), ropts,
      [this](const net::Reactor::ConnRef& ref,
             std::vector<std::uint8_t> body) {
        handle_client_frame(ref, std::move(body));
      });
  if (!reactor_->start()) {
    reactor_.reset();
    stop_core();
    return false;
  }
  started_ = true;
  return true;
}

void SiteServer::stop_core() {
  timers_.stop();
  transport_->stop();
  engine_->stop_all();
}

void SiteServer::schedule_catchup_tick() {
  const std::uint32_t interval_ms =
      config_.catchup_interval_ms > 0 ? config_.catchup_interval_ms : 500;
  timers_.schedule_after(
      static_cast<std::int64_t>(interval_ms) * 1000, [this] {
        if (stopping_.load(std::memory_order_relaxed)) return;
        for (std::uint32_t k = 0; k < engine_->shards(); ++k) {
          engine_->shard(k).post_catchup_tick();
        }
        schedule_catchup_tick();
      });
}

void SiteServer::schedule_heartbeat_tick() {
  timers_.schedule_after(static_cast<std::int64_t>(hb_interval_us_), [this] {
    if (stopping_.load(std::memory_order_relaxed)) return;
    heartbeat_tick();
    schedule_heartbeat_tick();
  });
}

void SiteServer::heartbeat_tick() {
  // Runs on the timer thread. Sends go straight to the transport (enqueue
  // only, never blocking); suspicion flips here, recovery flips in
  // deliver() the moment an ack arrives.
  const auto now = static_cast<std::uint64_t>(wall_now_us());
  for (causal::SiteId s = 0; s < config_.site_count(); ++s) {
    if (s == self_) continue;
    PeerHealth& h = health_[s];
    net::Message ping;
    ping.kind = net::MsgKind::kHeartbeat;
    ping.src = self_;
    ping.dst = s;
    net::Encoder enc;
    enc.varint(now);
    ping.body = enc.take();
    transport_->send(std::move(ping));
    h.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);

    const std::uint64_t last = h.last_ack_us.load(std::memory_order_relaxed);
    const std::uint64_t base =
        last != 0 ? last : hb_epoch_us_.load(std::memory_order_relaxed);
    // The silence budget scales with the observed RTT so a slow WAN link
    // is not flapped into suspicion, with the configured floor as the
    // minimum (suspect-after).
    const std::uint64_t rtt = h.rtt_ewma_us.load(std::memory_order_relaxed);
    const std::uint64_t window = std::max<std::uint64_t>(
        suspect_floor_us_, 4 * rtt + 2 * hb_interval_us_);
    if (now > base + window &&
        !h.suspected.exchange(true, std::memory_order_relaxed)) {
      h.suspect_events.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void SiteServer::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Stop client I/O first: the reactor closes every connection and joins
  // its loops; engine callbacks still in flight then hit send_response's
  // late-response drop instead of a dead socket.
  if (reactor_) reactor_->stop();
  // Abort parked reads / covered waits and stop the apply threads; any
  // remaining async callbacks observe nullopt and drop their responses.
  // Only then may the reactor object go: those callbacks still call it.
  engine_->stop_all();
  reactor_.reset();
  timers_.stop();
  // Best effort: let queued protocol traffic reach live peers before the
  // sockets close. A dead peer's queue is dropped (it would be stale for
  // the peer's fresh state anyway).
  transport_->flush(std::chrono::milliseconds(250));
  transport_->stop();
  started_ = false;
}

void SiteServer::deliver(net::Message msg) {
  // Failure-detector traffic is handled right here on the delivery thread —
  // it must not queue behind protocol commands, or a backlogged engine
  // would read as a dead peer.
  if (msg.kind == net::MsgKind::kHeartbeat) {
    if (!stopping_.load(std::memory_order_relaxed)) {
      net::Message ack;
      ack.kind = net::MsgKind::kHeartbeatAck;
      ack.src = self_;
      ack.dst = msg.src;
      ack.body = std::move(msg.body);  // echo the sender's timestamp
      transport_->send(std::move(ack));
    }
    return;
  }
  if (msg.kind == net::MsgKind::kHeartbeatAck) {
    if (msg.src >= health_.size()) return;
    PeerHealth& h = health_[msg.src];
    const auto now = static_cast<std::uint64_t>(wall_now_us());
    net::Decoder dec(msg.body.data(), msg.body.size());
    const std::uint64_t echoed = dec.varint();
    if (dec.ok() && now >= echoed) {
      const std::uint64_t rtt = now - echoed;
      // An ack proves the peer is reachable *now* regardless of the
      // echoed timestamp's age, but a stale echo (a ping that sat in a
      // healed partition's queue) is not an RTT sample.
      if (rtt <= 4 * suspect_floor_us_ + 4 * hb_interval_us_) {
        const std::uint64_t prev =
            h.rtt_ewma_us.load(std::memory_order_relaxed);
        h.rtt_ewma_us.store(prev == 0 ? rtt : (prev * 7 + rtt) / 8,
                            std::memory_order_relaxed);
      }
    }
    h.last_ack_us.store(now, std::memory_order_relaxed);
    h.acks_received.fetch_add(1, std::memory_order_relaxed);
    h.suspected.store(false, std::memory_order_relaxed);
    return;
  }
  // Pure producer: the delivery thread never touches a protocol. Envelope
  // admission (sharded) or the single engine's queue bound provide the
  // backpressure; the transport's inbound queue is unbounded precisely so
  // this cannot deadlock peers.
  engine_->deliver(std::move(msg));
}

// ---- client protocol -------------------------------------------------

void SiteServer::send_status(const net::Reactor::ConnRef& ref,
                             ClientStatus st) {
  net::Encoder resp;
  resp.u8(static_cast<std::uint8_t>(st));
  reactor_->send_response(ref, resp.take());
}

void SiteServer::finish_with_tokens(net::Reactor::ConnRef ref,
                                    std::vector<std::uint8_t> partial,
                                    bool want_tokens, bool dup_replay) {
  if (!want_tokens || config_.site_count() <= 1) {
    net::Encoder resp(partial.size() + 1);
    resp.raw(partial.data(), partial.size());
    resp.u8(dup_replay ? kRespDupReplay : 0);
    reactor_->send_response(ref, resp.take());
    return;
  }
  // Coverage tokens for every other site, computed after the op: the token
  // covers at least the session's causal past (tokens are target-specific
  // and monotone in this site's state), so presenting it at the target
  // preserves the session guarantees across a failover — even one this
  // site never hears about. Gathered via an async chain so no event loop
  // or apply thread ever blocks; a target whose token gather loses to a
  // shutdown race is simply omitted, as before.
  struct Gather {
    net::Reactor::ConnRef ref;
    std::vector<std::uint8_t> partial;
    bool dup_replay = false;
    causal::SiteId next = 0;
    std::vector<std::pair<causal::SiteId, std::vector<std::uint8_t>>> tokens;
  };
  auto st = std::make_shared<Gather>();
  st->ref = ref;
  st->partial = std::move(partial);
  st->dup_replay = dup_replay;
  struct Runner {
    static void step(SiteServer* srv, std::shared_ptr<Gather> s) {
      while (s->next == srv->self_) ++s->next;
      if (s->next >= srv->config_.site_count()) {
        net::Encoder resp(s->partial.size() + 16);
        resp.raw(s->partial.data(), s->partial.size());
        std::uint8_t flags = s->dup_replay ? kRespDupReplay : 0;
        if (!s->tokens.empty()) flags |= kRespHasTokens;
        resp.u8(flags);
        if ((flags & kRespHasTokens) != 0) {
          resp.varint(s->tokens.size());
          for (const auto& [target, token] : s->tokens) {
            resp.varint(target);
            resp.varint(token.size());
            resp.raw(token.data(), token.size());
          }
        }
        srv->reactor_->send_response(s->ref, resp.take());
        return;
      }
      const causal::SiteId target = s->next++;
      srv->engine_->async_token(
          target,
          [srv, target, s](std::optional<std::vector<std::uint8_t>> token) {
            if (token) s->tokens.emplace_back(target, std::move(*token));
            step(srv, s);
          });
    }
  };
  Runner::step(this, st);
}

void SiteServer::handle_client_frame(const net::Reactor::ConnRef& ref,
                                     std::vector<std::uint8_t> body) {
  net::Decoder req(body.data(), body.size());
  const std::uint8_t op = req.u8();
  if (!req.ok()) {
    send_status(ref, ClientStatus::kBadRequest);
    return;
  }
  switch (static_cast<ClientOp>(op)) {
    case ClientOp::kPing: {
      send_status(ref, ClientStatus::kOk);
      return;
    }
    case ClientOp::kPut: {
      const auto x = static_cast<causal::VarId>(req.varint());
      std::string data = req.bytes();
      if (!req.ok() || x >= rmap_.vars()) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      // Trailing opts (absent from old clients): retry metadata.
      std::uint8_t popts = 0;
      std::uint64_t session = 0;
      std::uint64_t req_id = 0;
      const bool has_opts = req.remaining() > 0;
      if (has_opts) {
        popts = req.u8();
        if ((popts & kReqHasRequestId) != 0) {
          session = req.varint();
          req_id = req.varint();
        }
        if (!req.ok()) {
          send_status(ref, ClientStatus::kBadRequest);
          return;
        }
      }
      const bool dedup = (popts & kReqHasRequestId) != 0 && session != 0;
      if (dedup) {
        std::optional<ProtocolEngine::WriteResult> replay;
        {
          std::lock_guard lk(dedup_mu_);
          const auto it = put_dedup_.find(session);
          if (it != put_dedup_.end() && it->second.req_id == req_id) {
            replay = it->second.result;
          }
        }
        if (replay) {
          net::Encoder resp;
          resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
          resp.varint(replay->id.writer + 1);
          resp.varint(replay->id.seq);
          resp.varint(replay->lamport);
          if (has_opts) {
            finish_with_tokens(ref, resp.take(),
                               (popts & kReqWantTokens) != 0,
                               /*dup_replay=*/true);
          } else {
            reactor_->send_response(ref, resp.take());
          }
          return;
        }
      }
      const bool local = rmap_.replicated_at(x, self_);
      engine_->async_write(
          x, std::move(data), local,
          [this, ref, has_opts, popts, dedup, session,
           req_id](std::optional<ProtocolEngine::WriteResult> r) {
            if (!r) {
              send_status(ref, ClientStatus::kShuttingDown);
              return;
            }
            if (dedup) {
              std::lock_guard lk(dedup_mu_);
              if (put_dedup_.size() >= kDedupSessionCap &&
                  put_dedup_.count(session) == 0) {
                put_dedup_.erase(put_dedup_.begin());
              }
              put_dedup_[session] = PutDedup{req_id, *r};
            }
            net::Encoder resp;
            resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
            resp.varint(r->id.writer + 1);
            resp.varint(r->id.seq);
            resp.varint(r->lamport);
            if (has_opts) {
              finish_with_tokens(ref, resp.take(),
                                 (popts & kReqWantTokens) != 0,
                                 /*dup_replay=*/false);
            } else {
              reactor_->send_response(ref, resp.take());
            }
          });
      return;
    }
    case ClientOp::kGet: {
      const auto x = static_cast<causal::VarId>(req.varint());
      if (!req.ok() || x >= rmap_.vars()) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      const bool has_opts = req.remaining() > 0;
      const std::uint8_t gopts = has_opts ? req.u8() : 0;
      if (!rmap_.replicated_at(x, self_)) {
        // The read would park on a RemoteFetch; if the failure detector
        // believes every replica of x is down, fail fast with a typed
        // status instead of burning the whole fetch timeout.
        bool any_alive = false;
        for (const causal::SiteId s : rmap_.replicas(x)) {
          if (!peer_suspected(s)) {
            any_alive = true;
            break;
          }
        }
        if (!any_alive) {
          reads_fast_failed_.fetch_add(1, std::memory_order_relaxed);
          send_status(ref, ClientStatus::kUnavailable);
          return;
        }
      }
      engine_->async_read(
          x, [this, ref, has_opts, gopts](std::optional<causal::Value> v) {
            if (!v) {
              send_status(ref, ClientStatus::kShuttingDown);
              return;
            }
            net::Encoder resp;
            resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
            causal::encode_value(resp, *v);
            if (has_opts) {
              finish_with_tokens(ref, resp.take(),
                                 (gopts & kReqWantTokens) != 0, false);
            } else {
              reactor_->send_response(ref, resp.take());
            }
          });
      return;
    }
    case ClientOp::kSnapshot: {
      const std::uint64_t count = req.varint();
      std::vector<causal::VarId> vars;
      for (std::uint64_t i = 0; i < count && req.ok(); ++i) {
        vars.push_back(static_cast<causal::VarId>(req.varint()));
      }
      if (!req.ok() || count == 0 || count > rmap_.vars()) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      for (const causal::VarId x : vars) {
        if (x >= rmap_.vars() || !rmap_.replicated_at(x, self_)) {
          send_status(ref, ClientStatus::kNotReplicated);
          return;
        }
      }
      const bool has_opts = req.remaining() > 0;
      const std::uint8_t sopts = has_opts ? req.u8() : 0;
      // Single shard: one engine command, so one atomic cut of the apply
      // order. Sharded: a sequence of per-shard cuts (see
      // sharded_engine.hpp).
      engine_->async_snapshot(
          std::move(vars),
          [this, ref, has_opts,
           sopts](std::optional<std::vector<causal::Value>> values) {
            if (!values) {
              send_status(ref, ClientStatus::kShuttingDown);
              return;
            }
            net::Encoder resp;
            resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
            resp.varint(values->size());
            for (const causal::Value& v : *values) {
              causal::encode_value(resp, v);
            }
            if (has_opts) {
              finish_with_tokens(ref, resp.take(),
                                 (sopts & kReqWantTokens) != 0, false);
            } else {
              reactor_->send_response(ref, resp.take());
            }
          });
      return;
    }
    case ClientOp::kToken: {
      const auto target = static_cast<causal::SiteId>(req.varint());
      if (!req.ok() || target >= rmap_.sites()) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      engine_->async_token(
          target,
          [this, ref](std::optional<std::vector<std::uint8_t>> token) {
            if (!token) {
              send_status(ref, ClientStatus::kShuttingDown);
              return;
            }
            net::Encoder resp;
            resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
            resp.varint(token->size());
            resp.raw(token->data(), token->size());
            reactor_->send_response(ref, resp.take());
          });
      return;
    }
    case ClientOp::kCovered: {
      const std::string token_str = req.bytes();
      // Clamp so a garbage wait cannot park the request for hours (the
      // client polls in bounded rounds anyway).
      const std::uint64_t wait_us =
          std::min<std::uint64_t>(req.varint(), 10'000'000);
      if (!req.ok()) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      std::vector<std::uint8_t> token(token_str.begin(), token_str.end());
      engine_->async_covered(
          std::move(token), wait_us, [this, ref](std::optional<bool> covered) {
            if (!covered) {
              send_status(ref, ClientStatus::kShuttingDown);
              return;
            }
            net::Encoder resp;
            resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
            resp.u8(*covered ? 1 : 0);
            reactor_->send_response(ref, resp.take());
          });
      return;
    }
    case ClientOp::kChaos: {
      // Touches only the transport (thread-safe); handled inline.
      const std::uint8_t action = req.u8();
      if (!req.ok() || action > 1) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      if (action == 0) {
        transport_->clear_chaos();
        send_status(ref, ClientStatus::kOk);
        return;
      }
      const std::uint64_t peer_plus1 = req.varint();
      net::ChaosRule rule;
      rule.drop_milli = static_cast<std::uint32_t>(req.varint());
      rule.delay_us = static_cast<std::uint32_t>(req.varint());
      rule.rate_per_s = static_cast<std::uint32_t>(req.varint());
      rule.partition = req.u8() != 0;
      if (!req.ok() || rule.drop_milli > 1000 ||
          peer_plus1 > config_.site_count() ||
          (peer_plus1 != 0 && peer_plus1 - 1 == self_)) {
        send_status(ref, ClientStatus::kBadRequest);
        return;
      }
      for (causal::SiteId peer = 0; peer < config_.site_count(); ++peer) {
        if (peer == self_) continue;
        if (peer_plus1 != 0 && peer != peer_plus1 - 1) continue;
        transport_->set_chaos(peer, rule);
      }
      send_status(ref, ClientStatus::kOk);
      return;
    }
    case ClientOp::kStatus: {
      reply_with_report(ref, [this](const ShardedEngine::Report& r,
                                    net::Encoder& resp) {
        const auto stats = transport_->peer_stats();
        std::uint64_t sent = 0;
        std::uint64_t recv = 0;
        std::uint64_t queued = 0;
        for (const auto& ps : stats) {
          sent += ps.msgs_sent;
          recv += ps.msgs_recv;
          queued += ps.queued;
        }
        resp.varint(self_);
        resp.u8(static_cast<std::uint8_t>(config_.algorithm));
        resp.varint(r.site.protocol.writes);
        resp.varint(r.site.protocol.reads);
        resp.varint(r.site.pending_updates);
        resp.varint(sent);
        resp.varint(recv);
        resp.varint(queued);
        // Geo extension: this site's region plus per-region peer health
        // (flat clusters answer region:"" regions:0).
        const auto& topo = config_.topology;
        if (topo.empty()) {
          resp.bytes(std::string{});
          resp.varint(0);
        } else {
          resp.bytes(topo.region_name_of(self_));
          resp.varint(topo.region_count());
          for (std::uint32_t reg = 0; reg < topo.region_count(); ++reg) {
            resp.bytes(topo.region_names[reg]);
            std::uint64_t total = 0;
            std::uint64_t up = 0;
            for (const auto& ps : stats) {
              if (topo.region_of(ps.site) != reg) continue;
              ++total;
              if (ps.connected) ++up;
            }
            resp.varint(total);
            resp.varint(up);
          }
        }
        // Failure-detector extension: the peers this site currently
        // suspects unreachable.
        std::vector<causal::SiteId> suspected;
        for (causal::SiteId peer = 0; peer < config_.site_count(); ++peer) {
          if (peer != self_ && peer_suspected(peer)) suspected.push_back(peer);
        }
        resp.varint(suspected.size());
        for (const causal::SiteId peer : suspected) resp.varint(peer);
        // Engine-shard extension: one row per shard.
        resp.varint(r.shards.size());
        for (const auto& row : r.shards) {
          resp.varint(row.protocol.writes);
          resp.varint(row.protocol.reads);
          resp.varint(row.pending_updates);
          resp.varint(row.queue.depth);
          resp.varint(row.queue.capacity);
          resp.varint(row.queue.parked_reads);
          resp.varint(row.queue.covered_waiters);
        }
      });
      return;
    }
    case ClientOp::kMetrics: {
      reply_with_report(
          ref, [this](const ShardedEngine::Report& r, net::Encoder& resp) {
            resp.bytes(metrics_text(r));
          });
      return;
    }
    case ClientOp::kStoreStat: {
      reply_with_report(
          ref, [](const ShardedEngine::Report& r, net::Encoder& resp) {
            const store::EngineStats& st = r.site.store;
            resp.u8(static_cast<std::uint8_t>(st.kind));
            resp.varint(st.keys);
            resp.varint(st.resident_bytes);
            resp.varint(st.index_slots);
            resp.varint(st.lookups);
            resp.varint(st.probes);
            resp.varint(st.spilled_keys);
            resp.varint(st.spill_segment_bytes);
            resp.varint(st.spill_reads);
            resp.varint(st.spill_writes);
            resp.varint(st.compactions);
          });
      return;
    }
    case ClientOp::kEngineStat: {
      reply_with_report(ref, [this](const ShardedEngine::Report& r,
                                    net::Encoder& resp) {
        resp.varint(r.shards.size());
        resp.varint(engine_->parked_envelopes());
        resp.varint(engine_->malformed_envelopes());
        for (const auto& row : r.shards) {
          resp.varint(row.protocol.writes);
          resp.varint(row.protocol.reads);
          resp.varint(row.pending_updates);
          resp.varint(row.queue.depth);
          resp.varint(row.queue.capacity);
          resp.varint(row.queue.peak_depth);
          resp.varint(row.queue.producer_waits);
          resp.varint(row.queue.parked_reads);
          resp.varint(row.queue.covered_waiters);
          resp.varint(row.queue.enqueued_total());
        }
      });
      return;
    }
  }
  send_status(ref, ClientStatus::kBadRequest);
}

void SiteServer::reply_with_report(
    const net::Reactor::ConnRef& ref,
    std::function<void(const ShardedEngine::Report&, net::Encoder&)> encode) {
  engine_->async_report(
      [this, ref, encode = std::move(encode)](
          std::optional<ShardedEngine::Report> r) {
        if (!r) {
          send_status(ref, ClientStatus::kShuttingDown);
          return;
        }
        net::Encoder resp;
        resp.u8(static_cast<std::uint8_t>(ClientStatus::kOk));
        encode(*r, resp);
        reactor_->send_response(ref, resp.take());
      });
}

HealthStats SiteServer::health_stats() const {
  HealthStats out;
  out.reads_fast_failed = reads_fast_failed_.load(std::memory_order_relaxed);
  for (causal::SiteId peer = 0; peer < health_.size(); ++peer) {
    if (peer == self_) continue;
    const PeerHealth& h = health_[peer];
    HealthStats::Peer p;
    p.site = peer;
    p.suspected = h.suspected.load(std::memory_order_relaxed);
    p.rtt_ewma_us = h.rtt_ewma_us.load(std::memory_order_relaxed);
    p.suspect_events = h.suspect_events.load(std::memory_order_relaxed);
    p.heartbeats_sent = h.heartbeats_sent.load(std::memory_order_relaxed);
    p.acks_received = h.acks_received.load(std::memory_order_relaxed);
    out.peers.push_back(p);
  }
  return out;
}

std::optional<ShardedEngine::Report> SiteServer::report_now() const {
  return util::block_on<ShardedEngine::Report>(
      [this](ShardedEngine::ReportCb cb) {
        engine_->async_report(std::move(cb));
      });
}

metrics::Metrics SiteServer::metrics() const {
  metrics::Metrics merged = transport_->metrics_snapshot();
  if (const auto r = report_now()) merged.merge(r->site.protocol);
  return merged;
}

ProtocolEngine::QueueStats SiteServer::engine_stats() const {
  ProtocolEngine::QueueStats sum;
  for (const auto& s : engine_->queue_stats()) sum.accumulate(s);
  return sum;
}

std::string SiteServer::metrics_text(const ShardedEngine::Report& r) const {
  std::vector<std::string> site_regions;
  if (!config_.topology.empty()) {
    site_regions.reserve(config_.sites.size());
    for (causal::SiteId peer = 0; peer < config_.site_count(); ++peer) {
      site_regions.push_back(config_.topology.region_name_of(peer));
    }
  }
  metrics::Metrics merged = transport_->metrics_snapshot();
  merged.merge(r.site.protocol);
  std::vector<ProtocolEngine::QueueStats> queues;
  queues.reserve(r.shards.size());
  for (const auto& row : r.shards) queues.push_back(row.queue);
  return render_metrics_text(self_, merged, queues, transport_->peer_stats(),
                             r.site.pending_updates, r.site.durability,
                             site_regions, health_stats(), r.site.store,
                             engine_->parked_envelopes(),
                             engine_->malformed_envelopes());
}

}  // namespace ccpr::server
