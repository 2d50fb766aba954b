#include "client/client.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "causal/value_codec.hpp"
#include "net/wire.hpp"
#include "server/client_protocol.hpp"

namespace ccpr::client {

namespace {

using server::ClientOp;
using server::ClientStatus;

[[noreturn]] void fail_usage(const std::string& what) {
  throw Error(ErrorKind::kProtocol, /*retryable=*/false,
              /*indeterminate=*/false, what);
}

[[noreturn]] void fail_protocol(const std::string& what) {
  // The server answered, so the operation executed; we just cannot read
  // the result. Indeterminate, and retrying won't fix a format mismatch.
  throw Error(ErrorKind::kProtocol, /*retryable=*/false,
              /*indeterminate=*/true, what);
}

const char* status_name(ClientStatus st) {
  switch (st) {
    case ClientStatus::kOk: return "ok";
    case ClientStatus::kBadRequest: return "bad request";
    case ClientStatus::kNotReplicated: return "not replicated at site";
    case ClientStatus::kShuttingDown: return "server shutting down";
    case ClientStatus::kUnavailable: return "unavailable (replicas down)";
  }
  return "unknown status";
}

/// Map a non-ok server status to the typed error the retry layer acts on.
Error status_error(const char* op, ClientStatus st) {
  const std::string what = std::string(op) + ": " + status_name(st);
  switch (st) {
    case ClientStatus::kShuttingDown:
    case ClientStatus::kUnavailable:
      // Transient by construction: another attempt — ideally at another
      // site — can succeed. The server rejected before executing.
      return Error(ErrorKind::kServer, /*retryable=*/true,
                   /*indeterminate=*/false, what);
    default:
      return Error(ErrorKind::kServer, /*retryable=*/false,
                   /*indeterminate=*/false, what);
  }
}

/// Expect kOk; throw a descriptive error otherwise.
void check_status(net::Decoder& dec, const char* op) {
  const auto st = static_cast<ClientStatus>(dec.u8());
  if (!dec.ok()) fail_protocol(std::string(op) + ": short response");
  if (st != ClientStatus::kOk) throw status_error(op, st);
}

std::uint64_t random_session_id() {
  std::random_device rd;
  std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return id == 0 ? 1 : id;
}

}  // namespace

Client::Client(server::ClusterConfig config, causal::SiteId site,
               Options opts)
    : config_(std::move(config)),
      keys_(config_.key_space()),
      rmap_(config_.replica_map()),
      site_(site),
      opts_(opts),
      max_frame_bytes_(opts.max_frame_bytes > 0 ? opts.max_frame_bytes
                                                : net::kDefaultMaxFrameBytes),
      session_id_(random_session_id()),
      backoff_rng_(random_session_id()) {
  if (site_ >= config_.site_count()) fail_usage("site id out of range");
  sock_ = dial_site(site_, opts_.connect_timeout);
  if (!sock_.valid() && opts_.retry.enabled && opts_.retry.failover) {
    // The preferred site may already be down when the session starts. A
    // fresh session has no causal past, so starting it at the next
    // nearest site needs no coverage handshake.
    for (const causal::SiteId cand : failover_candidates(site_)) {
      sock_ = dial_site(cand, opts_.connect_timeout);
      if (sock_.valid()) {
        site_ = cand;
        ++failovers_;
        break;
      }
    }
  }
  if (!sock_.valid()) {
    throw Error(ErrorKind::kConnect, /*retryable=*/true,
                /*indeterminate=*/false,
                "cannot connect to site " + std::to_string(site_));
  }
}

Client::~Client() = default;

void Client::close() { sock_.close(); }

net::Socket Client::dial_site(causal::SiteId site,
                              std::chrono::milliseconds timeout) {
  const auto& addr = config_.sites[site];
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto backoff = std::chrono::milliseconds(10);
  while (true) {
    net::Socket s = net::tcp_dial(addr.host, addr.client_port);
    if (s.valid()) {
      if (opts_.request_timeout.count() > 0) {
        struct timeval tv;
        tv.tv_sec = static_cast<time_t>(opts_.request_timeout.count() / 1000);
        tv.tv_usec = static_cast<suseconds_t>(
            (opts_.request_timeout.count() % 1000) * 1000);
        ::setsockopt(s.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      }
      return s;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now + backoff > deadline) return {};
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
  }
}

std::vector<std::uint8_t> Client::roundtrip(
    const std::vector<std::uint8_t>& req) {
  if (!sock_.valid()) {
    throw Error(ErrorKind::kConnect, /*retryable=*/true,
                /*indeterminate=*/false, "connection closed");
  }
  // Any failure past this point leaves the stream desynchronized — in
  // particular a request timeout, where the late response would otherwise
  // be read as the answer to the *next* request (frames carry no
  // correlation id). Close the connection so a caller that catches the
  // exception cannot accidentally reuse it.
  if (!server::write_client_frame(sock_.fd(), req)) {
    sock_.close();
    throw Error(ErrorKind::kConnect, /*retryable=*/true,
                /*indeterminate=*/false,
                "send failed (site " + std::to_string(site_) +
                    " unreachable?)");
  }
  auto resp = server::read_client_frame(sock_.fd(), max_frame_bytes_);
  if (!resp) {
    sock_.close();
    // The request reached the socket but no answer came back: the server
    // may or may not have executed it.
    throw Error(ErrorKind::kTimeout, /*retryable=*/true,
                /*indeterminate=*/true,
                "no response (site " + std::to_string(site_) +
                    " closed the connection or timed out)");
  }
  return std::move(*resp);
}

std::uint8_t Client::request_opts(bool is_put) const {
  std::uint8_t opts = 0;
  if (opts_.retry.enabled && is_put) opts |= server::kReqHasRequestId;
  if (opts_.retry.failover) opts |= server::kReqWantTokens;
  return opts;
}

void Client::absorb_response_tail(net::Decoder& dec, std::uint8_t opts,
                                  const char* op) {
  if (opts == 0) return;  // legacy request shape: no flags byte follows
  const std::uint8_t flags = dec.u8();
  if (!dec.ok()) fail_protocol(std::string(op) + ": missing response flags");
  if ((flags & server::kRespHasTokens) != 0) {
    const std::uint64_t count = dec.varint();
    for (std::uint64_t i = 0; i < count && dec.ok(); ++i) {
      const auto target = static_cast<causal::SiteId>(dec.varint());
      std::string token = dec.bytes();
      if (dec.ok() && target < config_.site_count()) {
        tokens_[target] = std::move(token);
      }
    }
    if (!dec.ok()) fail_protocol(std::string(op) + ": malformed tokens");
  }
}

std::vector<causal::SiteId> Client::failover_candidates(
    causal::SiteId from) const {
  std::vector<causal::SiteId> out;
  for (causal::SiteId s = 0; s < config_.site_count(); ++s) {
    if (s != from) out.push_back(s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [&](causal::SiteId a, causal::SiteId b) {
                     return rmap_.site_distance(from, a) <
                            rmap_.site_distance(from, b);
                   });
  return out;
}

int Client::covered_poll(net::Socket& s, const std::string& token,
                         std::chrono::steady_clock::time_point deadline) {
  while (true) {
    net::Encoder creq;
    creq.u8(static_cast<std::uint8_t>(ClientOp::kCovered));
    creq.bytes(token);
    creq.varint(200'000);  // server-side wait per round: 200ms
    if (!server::write_client_frame(s.fd(), creq.buffer())) return -1;
    const auto cresp = server::read_client_frame(s.fd(), max_frame_bytes_);
    if (!cresp) return -1;
    net::Decoder cdec(*cresp);
    const auto st = static_cast<ClientStatus>(cdec.u8());
    if (!cdec.ok() || st != ClientStatus::kOk) return -1;
    const bool covered = cdec.u8() != 0;
    if (!cdec.ok()) return -1;
    if (covered) return 1;
    if (std::chrono::steady_clock::now() >= deadline) return 0;
  }
}

bool Client::failover_to(causal::SiteId target,
                         std::chrono::steady_clock::time_point deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return false;
  auto budget =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
  budget = std::min(budget, opts_.connect_timeout);
  net::Socket next = dial_site(target, budget);
  if (!next.valid()) return false;
  // Carry the session's causal past: wait until the target covers the
  // freshest coverage token we hold for it. A session with no token (no
  // operations yet, or a server that doesn't piggyback them) has no
  // tracked past to protect and adopts the site directly.
  const auto it = tokens_.find(target);
  if (it != tokens_.end()) {
    if (covered_poll(next, it->second, deadline) != 1) return false;
  }
  sock_ = std::move(next);
  site_ = target;
  ++failovers_;
  return true;
}

std::vector<std::uint8_t> Client::transact(
    const char* op, const std::vector<std::uint8_t>& req,
    std::vector<causal::SiteId>* maybe_sites) {
  const auto& retry = opts_.retry;
  if (!retry.enabled) {
    auto resp = roundtrip(req);
    net::Decoder dec(resp);
    const auto st = static_cast<ClientStatus>(dec.u8());
    if (!dec.ok()) fail_protocol(std::string(op) + ": short response");
    if (st != ClientStatus::kOk) throw status_error(op, st);
    return resp;
  }

  const auto deadline = std::chrono::steady_clock::now() + retry.op_deadline;
  auto backoff = retry.initial_backoff;
  std::uint32_t attempts = 0;
  std::uint32_t same_site_timeouts = 0;
  std::vector<causal::SiteId> tried_sites;
  while (true) {
    ++attempts;
    try {
      if (!sock_.valid()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) {
          throw Error(ErrorKind::kConnect, true, false,
                      std::string(op) +
                          ": operation deadline exceeded while disconnected");
        }
        auto budget = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - now);
        budget = std::min(budget, opts_.connect_timeout);
        sock_ = dial_site(site_, budget);
        if (!sock_.valid()) {
          throw Error(ErrorKind::kConnect, true, false,
                      std::string(op) + ": cannot reconnect to site " +
                          std::to_string(site_));
        }
      }
      auto resp = roundtrip(req);
      net::Decoder dec(resp);
      const auto st = static_cast<ClientStatus>(dec.u8());
      if (!dec.ok()) fail_protocol(std::string(op) + ": short response");
      if (st != ClientStatus::kOk) throw status_error(op, st);
      return resp;
    } catch (const Error& e) {
      if (e.indeterminate() && maybe_sites != nullptr) {
        // This attempt may have executed at the current site; the caller
        // records it as a maybe-write unless a later success at the same
        // site resolves it through the server's request-id dedup.
        if (std::find(maybe_sites->begin(), maybe_sites->end(), site_) ==
            maybe_sites->end()) {
          maybe_sites->push_back(site_);
        }
      }
      if (!e.retryable() || attempts >= retry.max_attempts) throw;
      const auto now = std::chrono::steady_clock::now();
      if (now + backoff >= deadline) throw;

      if (e.kind() == ErrorKind::kTimeout) ++same_site_timeouts;
      // Decide whether this attempt should move sites: immediately for a
      // dead connection or a server that refused (shutting down /
      // unavailable), and after two straight timeouts — one timeout can be
      // a single slow remote fetch, not a dead site.
      const bool want_failover =
          retry.failover &&
          (e.kind() == ErrorKind::kConnect || e.kind() == ErrorKind::kServer ||
           (e.kind() == ErrorKind::kTimeout && same_site_timeouts >= 2));
      if (want_failover) {
        bool moved = false;
        for (const causal::SiteId cand : failover_candidates(site_)) {
          if (std::find(tried_sites.begin(), tried_sites.end(), cand) !=
              tried_sites.end()) {
            continue;
          }
          tried_sites.push_back(cand);
          if (failover_to(cand, deadline)) {
            moved = true;
            break;
          }
        }
        if (moved) {
          same_site_timeouts = 0;
          ++retries_;
          continue;  // new site: try immediately, no backoff
        }
        tried_sites.clear();  // every site failed once: allow re-tries
      }

      // Exponential backoff with jitter (xorshift — cheap, seedless).
      backoff_rng_ ^= backoff_rng_ << 13;
      backoff_rng_ ^= backoff_rng_ >> 7;
      backoff_rng_ ^= backoff_rng_ << 17;
      const auto jitter = std::chrono::milliseconds(
          backoff.count() > 0
              ? static_cast<std::int64_t>(
                    backoff_rng_ %
                    static_cast<std::uint64_t>(backoff.count()))
              : 0);
      std::this_thread::sleep_for(backoff / 2 + jitter);
      backoff = std::min(backoff * 2, retry.max_backoff);
      ++retries_;
    }
  }
}

causal::WriteId Client::put(causal::VarId x, std::string value) {
  const std::uint8_t opts = request_opts(/*is_put=*/true);
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kPut));
  req.varint(x);
  req.bytes(value);
  if (opts != 0) {
    req.u8(opts);
    if ((opts & server::kReqHasRequestId) != 0) {
      req.varint(session_id_);
      req.varint(next_req_id_++);
    }
  }

  std::vector<causal::SiteId> maybe_sites;
  try {
    const auto resp = transact("put", req.buffer(), &maybe_sites);
    net::Decoder dec(resp);
    check_status(dec, "put");
    causal::WriteId id;
    const std::uint64_t writer = dec.varint();
    id.writer = writer == 0 ? causal::kNoSite
                            : static_cast<causal::SiteId>(writer - 1);
    id.seq = dec.varint();
    (void)dec.varint();  // lamport: informational
    if (!dec.ok()) fail_protocol("put: malformed response");
    absorb_response_tail(dec, opts, "put");
    if (opts_.recorder != nullptr) {
      // A retry that crossed sites cannot be deduped by the final site, so
      // any indeterminate attempt elsewhere may have produced a second
      // execution. Record those as maybe-writes so the checker tolerates
      // their effects; the confirmed execution is recorded normally.
      for (const causal::SiteId s : maybe_sites) {
        if (s != site_) opts_.recorder->on_write_maybe(s, x);
      }
      opts_.recorder->on_write(site_, id, x);
    }
    return id;
  } catch (const Error&) {
    if (opts_.recorder != nullptr) {
      for (const causal::SiteId s : maybe_sites) {
        opts_.recorder->on_write_maybe(s, x);
      }
    }
    throw;
  }
}

causal::Value Client::get(causal::VarId x) {
  const std::uint8_t opts = request_opts(/*is_put=*/false);
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kGet));
  req.varint(x);
  if (opts != 0) req.u8(opts);
  const auto resp = transact("get", req.buffer(), nullptr);
  net::Decoder dec(resp);
  check_status(dec, "get");
  causal::Value v = causal::decode_value(dec);
  if (!dec.ok()) fail_protocol("get: malformed response");
  absorb_response_tail(dec, opts, "get");
  if (opts_.recorder != nullptr) opts_.recorder->on_read(site_, x, v.id);
  return v;
}

std::vector<causal::Value> Client::snapshot(
    const std::vector<causal::VarId>& xs) {
  const std::uint8_t opts = request_opts(/*is_put=*/false);
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kSnapshot));
  req.varint(xs.size());
  for (const causal::VarId x : xs) req.varint(x);
  if (opts != 0) req.u8(opts);
  const auto resp = transact("snapshot", req.buffer(), nullptr);
  net::Decoder dec(resp);
  check_status(dec, "snapshot");
  const std::uint64_t count = dec.varint();
  if (!dec.ok() || count != xs.size()) {
    fail_protocol("snapshot: malformed response");
  }
  std::vector<causal::Value> out;
  out.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out.push_back(causal::decode_value(dec));
    if (!dec.ok()) fail_protocol("snapshot: malformed response");
  }
  absorb_response_tail(dec, opts, "snapshot");
  if (opts_.recorder != nullptr) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      opts_.recorder->on_read(site_, xs[i], out[i].id);
    }
  }
  return out;
}

causal::WriteId Client::put_key(std::string_view key, std::string value) {
  if (!keys_.contains(key)) {
    fail_usage("unknown key '" + std::string(key) + "'");
  }
  return put(keys_.intern(key), std::move(value));
}

std::string Client::get_key(std::string_view key) {
  if (!keys_.contains(key)) {
    fail_usage("unknown key '" + std::string(key) + "'");
  }
  return get(keys_.intern(key)).data;
}

void Client::migrate(causal::SiteId new_site,
                     std::chrono::milliseconds timeout) {
  if (new_site >= config_.site_count()) {
    fail_usage("migrate: site out of range");
  }
  if (new_site == site_) return;
  const auto deadline = std::chrono::steady_clock::now() + timeout;

  // 1. Ask the current site for a coverage token naming the target.
  net::Encoder treq;
  treq.u8(static_cast<std::uint8_t>(ClientOp::kToken));
  treq.varint(new_site);
  const auto tresp = roundtrip(treq.buffer());
  net::Decoder tdec(tresp);
  check_status(tdec, "migrate/token");
  const std::string token = tdec.bytes();
  if (!tdec.ok()) fail_protocol("migrate: malformed token response");

  // 2. Connect to the target and poll until it covers this session's causal
  //    past. The old connection stays usable until the handoff succeeds.
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) {
    throw Error(ErrorKind::kTimeout, true, false, "migrate: timed out");
  }
  net::Socket next = dial_site(
      new_site,
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
  if (!next.valid()) {
    throw Error(ErrorKind::kConnect, true, false,
                "migrate: cannot connect to site " +
                    std::to_string(new_site));
  }
  switch (covered_poll(next, token, deadline)) {
    case 1:
      break;
    case 0:
      throw Error(ErrorKind::kTimeout, true, false,
                  "migrate: site " + std::to_string(new_site) +
                      " did not cover the session in time");
    default:
      throw Error(ErrorKind::kConnect, true, false,
                  "migrate: site " + std::to_string(new_site) +
                      " unreachable");
  }
  sock_ = std::move(next);
  site_ = new_site;
}

causal::SiteId Client::nearest_site(const server::ClusterConfig& config,
                                    std::string_view region) {
  if (config.topology.empty()) {
    fail_usage("nearest_site: cluster has no geo topology");
  }
  const auto r = config.topology.region_id(region);
  if (!r) {
    fail_usage("nearest_site: unknown region '" + std::string(region) + "'");
  }
  const auto sites = config.topology.sites_in_region(*r);
  if (sites.empty()) {
    fail_usage("nearest_site: region '" + std::string(region) +
               "' has no sites");
  }
  return sites.front();
}

ServerStatus Client::status() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kStatus));
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "status");
  ServerStatus st;
  st.site = static_cast<causal::SiteId>(dec.varint());
  st.algorithm = static_cast<causal::Algorithm>(dec.u8());
  st.writes = dec.varint();
  st.reads = dec.varint();
  st.pending_updates = dec.varint();
  st.peer_msgs_sent = dec.varint();
  st.peer_msgs_recv = dec.varint();
  st.peer_queued = dec.varint();
  st.region = dec.bytes();
  const std::uint64_t regions = dec.varint();
  for (std::uint64_t r = 0; dec.ok() && r < regions; ++r) {
    ServerStatus::RegionPeers rp;
    rp.region = dec.bytes();
    rp.peers = dec.varint();
    rp.connected = dec.varint();
    st.region_peers.push_back(std::move(rp));
  }
  const std::uint64_t suspected = dec.varint();
  for (std::uint64_t i = 0; dec.ok() && i < suspected; ++i) {
    st.suspected_peers.push_back(static_cast<causal::SiteId>(dec.varint()));
  }
  const std::uint64_t shards = dec.varint();
  for (std::uint64_t k = 0; dec.ok() && k < shards; ++k) {
    ServerStatus::ShardRow row;
    row.writes = dec.varint();
    row.reads = dec.varint();
    row.pending_updates = dec.varint();
    row.queue_depth = dec.varint();
    row.queue_capacity = dec.varint();
    row.parked_reads = dec.varint();
    row.covered_waiters = dec.varint();
    st.shards.push_back(row);
  }
  if (!dec.ok()) fail_protocol("status: malformed response");
  return st;
}

std::string Client::metrics_text() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kMetrics));
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "metrics");
  std::string text = dec.bytes();
  if (!dec.ok()) fail_protocol("metrics: malformed response");
  return text;
}

store::EngineStats Client::store_stat() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kStoreStat));
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "store-stat");
  store::EngineStats st;
  st.kind = static_cast<store::EngineKind>(dec.u8());
  st.keys = dec.varint();
  st.resident_bytes = dec.varint();
  st.index_slots = dec.varint();
  st.lookups = dec.varint();
  st.probes = dec.varint();
  st.spilled_keys = dec.varint();
  st.spill_segment_bytes = dec.varint();
  st.spill_reads = dec.varint();
  st.spill_writes = dec.varint();
  st.compactions = dec.varint();
  if (!dec.ok()) fail_protocol("store-stat: malformed response");
  return st;
}

EngineStat Client::engine_stat() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kEngineStat));
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "engine-stat");
  EngineStat st;
  const std::uint64_t shards = dec.varint();
  st.parked_envelopes = dec.varint();
  st.malformed_envelopes = dec.varint();
  for (std::uint64_t k = 0; dec.ok() && k < shards; ++k) {
    EngineStat::Shard row;
    row.writes = dec.varint();
    row.reads = dec.varint();
    row.pending_updates = dec.varint();
    row.queue_depth = dec.varint();
    row.queue_capacity = dec.varint();
    row.queue_peak_depth = dec.varint();
    row.producer_waits = dec.varint();
    row.parked_reads = dec.varint();
    row.covered_waiters = dec.varint();
    row.commands_total = dec.varint();
    st.shards.push_back(row);
  }
  if (!dec.ok()) fail_protocol("engine-stat: malformed response");
  return st;
}

void Client::ping() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kPing));
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "ping");
}

void Client::chaos_set(const net::ChaosRule& rule, causal::SiteId peer) {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kChaos));
  req.u8(1);  // set
  req.varint(peer == causal::kNoSite
                 ? 0
                 : static_cast<std::uint64_t>(peer) + 1);
  req.varint(rule.drop_milli);
  req.varint(rule.delay_us);
  req.varint(rule.rate_per_s);
  req.u8(rule.partition ? 1 : 0);
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "chaos");
}

void Client::chaos_clear() {
  net::Encoder req;
  req.u8(static_cast<std::uint8_t>(ClientOp::kChaos));
  req.u8(0);  // clear
  const auto resp = roundtrip(req.buffer());
  net::Decoder dec(resp);
  check_status(dec, "chaos");
}

}  // namespace ccpr::client
