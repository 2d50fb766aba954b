#include "server/protocol_engine.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace ccpr::server {

const char* ProtocolEngine::kind_name(CmdKind k) noexcept {
  switch (k) {
    case CmdKind::kWrite: return "write";
    case CmdKind::kRead: return "read";
    case CmdKind::kSnapshot: return "snapshot";
    case CmdKind::kToken: return "token";
    case CmdKind::kCovered: return "covered";
    case CmdKind::kStatus: return "status";
    case CmdKind::kApplyUpdate: return "apply_update";
    case CmdKind::kTimer: return "timer";
    case CmdKind::kCatchup: return "catchup";
    case CmdKind::kKindCount: break;
  }
  return "unknown";
}

ProtocolEngine::ProtocolEngine(Options opts) : opts_(opts) {
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
}

ProtocolEngine::~ProtocolEngine() { stop(); }

void ProtocolEngine::adopt_protocol(std::unique_ptr<causal::IProtocol> proto,
                                    metrics::Metrics* proto_metrics) {
  CCPR_EXPECTS(proto_ == nullptr && proto != nullptr);
  CCPR_EXPECTS(proto_metrics != nullptr);
  proto_ = std::move(proto);
  proto_metrics_ = proto_metrics;
}

void ProtocolEngine::configure_durability(
    Durability::Options opts, std::function<void(net::Message)> transport_send) {
  CCPR_EXPECTS(durability_ == nullptr);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  durability_ =
      std::make_unique<Durability>(std::move(opts), std::move(transport_send));
}

bool ProtocolEngine::recover(std::string* err) {
  std::lock_guard lifecycle(lifecycle_mu_);
  CCPR_EXPECTS(proto_ != nullptr);
  {
    std::lock_guard lk(mu_);
    CCPR_EXPECTS(!running_);
  }
  if (!durability_) return true;
  return durability_->recover(proto_.get(), err);
}

void ProtocolEngine::set_batch_end_hook(BatchEndHook hook) {
  CCPR_EXPECTS(!batch_end_hook_);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  batch_end_hook_ = std::move(hook);
}

void ProtocolEngine::start() {
  std::lock_guard lifecycle(lifecycle_mu_);
  CCPR_EXPECTS(proto_ != nullptr);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  stop_requested_ = false;
  running_ = true;
  apply_thread_ = std::thread([this] { loop(); });
}

void ProtocolEngine::stop() {
  // lifecycle_mu_ serializes concurrent stop() calls: without it both could
  // pass the joinable() check and join the same thread twice. The apply
  // thread never takes it, so holding it across the join cannot deadlock.
  std::lock_guard lifecycle(lifecycle_mu_);
  {
    std::lock_guard lk(mu_);
    if (!running_ && !stop_requested_) return;
    stop_requested_ = true;
  }
  cv_consume_.notify_all();
  cv_produce_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
  std::lock_guard lk(mu_);
  running_ = false;
}

bool ProtocolEngine::running() const noexcept {
  std::lock_guard lk(mu_);
  return running_ && !stop_requested_;
}

bool ProtocolEngine::enqueue(CmdKind kind, std::function<void()> run,
                             bool bounded) {
  std::unique_lock lk(mu_);
  if (bounded && queue_.size() >= opts_.queue_capacity && !stop_requested_) {
    ++producer_waits_;
    cv_produce_.wait(lk, [&] {
      return queue_.size() < opts_.queue_capacity || stop_requested_;
    });
  }
  if (stop_requested_ || !running_) return false;
  queue_.push_back(Cmd{kind, std::move(run)});
  ++enqueued_[static_cast<std::size_t>(kind)];
  if (queue_.size() > peak_depth_) peak_depth_ = queue_.size();
  lk.unlock();
  cv_consume_.notify_one();
  return true;
}

void ProtocolEngine::defer(std::function<void()> fn) {
  // Apply-thread-only (command lambdas, read continuations, the hook's
  // aftermath); outside a batch — e.g. abort paths — run immediately.
  if (in_batch_) {
    deferred_.push_back(std::move(fn));
  } else {
    fn();
  }
}

// ---- async producer API ----

void ProtocolEngine::async_write(causal::VarId x, std::string data,
                                 bool local_replica, WriteCb cb) {
  auto cbp = std::make_shared<WriteCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kWrite,
      [this, cbp, x, data = std::move(data), local_replica]() mutable {
        // Write-ahead: the WAL record lands before the protocol mutates, so
        // a crash between the two replays the write instead of losing it
        // (the client may not have been acked — that is allowed).
        if (durability_) durability_->on_local_write(x, data);
        proto_->write(x, std::move(data));
        WriteResult r;
        r.id = proto_->last_write_id();
        if (local_replica) r.lamport = proto_->peek(x).lamport;
        defer([cbp, r] { (*cbp)(r); });
        if (durability_) durability_->maybe_checkpoint(proto_.get());
      },
      /*bounded=*/false);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::async_read(causal::VarId x, ReadCb cb) {
  auto st = std::make_shared<ReadState>();
  st->cb = std::move(cb);
  const bool ok = enqueue(
      CmdKind::kRead,
      [this, st, x] {
        proto_->read(x, [this, st](const causal::Value& v) {
          st->fired = true;
          defer([st, v] { st->cb(v); });
        });
        // A RemoteFetch in flight leaves the continuation pending; park the
        // state so stop() can abort it if the response never arrives.
        if (!st->fired) parked_reads_.push_back(st);
      },
      /*bounded=*/false);
  if (!ok) st->cb(std::nullopt);
}

void ProtocolEngine::async_snapshot(std::vector<causal::VarId> xs,
                                    SnapshotCb cb) {
  auto cbp = std::make_shared<SnapshotCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kSnapshot,
      [this, cbp, xs = std::move(xs)] {
        // One apply slot => the values form a causally consistent cut. All
        // vars are locally replicated (caller-validated), so every
        // continuation runs synchronously.
        std::vector<causal::Value> out;
        out.reserve(xs.size());
        for (const causal::VarId x : xs) {
          proto_->read(x, [&out](const causal::Value& v) { out.push_back(v); });
        }
        CCPR_ASSERT(out.size() == xs.size());
        defer([cbp, out = std::move(out)]() mutable {
          (*cbp)(std::move(out));
        });
      },
      /*bounded=*/false);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::async_token(causal::SiteId target, TokenCb cb) {
  auto cbp = std::make_shared<TokenCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kToken,
      [this, cbp, target] {
        auto token = proto_->coverage_token(target);
        defer([cbp, token = std::move(token)]() mutable {
          (*cbp)(std::move(token));
        });
      },
      /*bounded=*/false);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::async_covered(std::vector<std::uint8_t> token,
                                   std::uint64_t wait_us, CoveredCb cb) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(wait_us);
  enqueue_covered(std::move(token), /*has_deadline=*/true, deadline,
                  std::move(cb), /*bounded=*/false);
}

void ProtocolEngine::post_covered_callback(std::vector<std::uint8_t> token,
                                           CoveredCb cb, bool bounded) {
  enqueue_covered(std::move(token), /*has_deadline=*/false, {}, std::move(cb),
                  bounded);
}

void ProtocolEngine::enqueue_covered(
    std::vector<std::uint8_t> token, bool has_deadline,
    std::chrono::steady_clock::time_point deadline, CoveredCb cb,
    bool bounded) {
  auto cbp = std::make_shared<CoveredCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kCovered,
      [this, cbp, token = std::move(token), has_deadline,
       deadline]() mutable {
        if (proto_->covered_by(token)) {
          defer([cbp] { (*cbp)(true); });
          return;
        }
        if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
          defer([cbp] { (*cbp)(false); });
          return;
        }
        covered_waiters_.push_back(
            CoveredWaiter{std::move(token), has_deadline, deadline, cbp});
      },
      bounded);
  if (!ok) (*cbp)(std::nullopt);
}

// ---- report ----

void ProtocolEngine::async_report(ReportCb cb) {
  auto cbp = std::make_shared<ReportCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kStatus,
      [this, cbp] {
        defer([cbp, r = make_report()]() mutable { (*cbp)(std::move(r)); });
      },
      /*bounded=*/false);
  if (ok) return;
  // Stopped-and-joined engines are quiescent; tools and tests read
  // post-mortem state this way. A stop() still in flight reports nullopt.
  // lifecycle_mu_ keeps the protocol quiescent for the whole read — a
  // concurrent start() would otherwise revive the apply thread between the
  // check and the reads.
  std::optional<Report> r;
  {
    std::lock_guard lifecycle(lifecycle_mu_);
    if (quiescent()) r = make_report();
  }
  (*cbp)(std::move(r));
}

ProtocolEngine::Report ProtocolEngine::make_report() {
  Report r;
  r.protocol = *proto_metrics_;
  r.protocol.log_entries.set(proto_->log_entry_count());
  r.protocol.meta_state_bytes.set(proto_->meta_state_bytes());
  r.pending_updates = proto_->pending_update_count();
  r.store = proto_->store_stats();
  if (durability_) {
    r.durability = durability_->stats();
    r.catchup = durability_->progress();
  }
  r.queue = queue_stats();
  return r;
}

void ProtocolEngine::Report::merge(const Report& o) {
  protocol.merge(o.protocol);
  pending_updates += o.pending_updates;
  store.accumulate(o.store);
  Durability::Stats& d = durability;
  d.wal_enabled = d.wal_enabled || o.durability.wal_enabled;
  d.wal.records_appended += o.durability.wal.records_appended;
  d.wal.bytes_appended += o.durability.wal.bytes_appended;
  d.wal.fsyncs += o.durability.wal.fsyncs;
  d.wal.checkpoints += o.durability.wal.checkpoints;
  d.wal.recovered_records += o.durability.wal.recovered_records;
  d.wal.truncated_bytes += o.durability.wal.truncated_bytes;
  d.catchup_updates += o.durability.catchup_updates;
  d.catchup_resent += o.durability.catchup_resent;
  d.catchup_reqs_sent += o.durability.catchup_reqs_sent;
  d.catchup_reqs_recv += o.durability.catchup_reqs_recv;
  d.dup_drops += o.durability.dup_drops;
  d.gap_drops += o.durability.gap_drops;
  d.skipped += o.durability.skipped;
  d.retained_msgs += o.durability.retained_msgs;
  catchup.recovered = catchup.recovered || o.catchup.recovered;
  catchup.complete = catchup.complete && o.catchup.complete;
  queue.accumulate(o.queue);
}

bool ProtocolEngine::quiescent() const {
  std::lock_guard lk(mu_);
  return proto_ != nullptr && !running_;
}

void ProtocolEngine::apply_message(net::Message msg, bool bounded) {
  const CmdKind kind = (msg.kind == net::MsgKind::kCatchupReq ||
                        msg.kind == net::MsgKind::kCatchupResp)
                           ? CmdKind::kCatchup
                           : CmdKind::kApplyUpdate;
  enqueue(
      kind,
      [this, msg = std::move(msg)]() mutable {
        if (durability_) {
          durability_->on_inbound(proto_.get(), std::move(msg));
        } else {
          proto_->on_message(msg);
        }
      },
      bounded);
}

void ProtocolEngine::post_timer(std::function<void()> fn) {
  enqueue(CmdKind::kTimer, std::move(fn), /*bounded=*/true);
}

void ProtocolEngine::post_catchup_tick() {
  if (!durability_) return;
  enqueue(
      CmdKind::kCatchup, [this] { durability_->tick(proto_.get()); },
      /*bounded=*/true);
}

void ProtocolEngine::protocol_send(net::Message msg) {
  CCPR_EXPECTS(durability_ != nullptr);
  durability_->on_protocol_send(std::move(msg));
}

void ProtocolEngine::persist_meta_merge(causal::VarId x,
                                        causal::SiteId responder,
                                        const std::uint8_t* data,
                                        std::size_t len) {
  if (durability_) durability_->on_meta_merge(x, responder, data, len);
}

ProtocolEngine::QueueStats ProtocolEngine::queue_stats() const {
  std::lock_guard lk(mu_);
  QueueStats s;
  s.depth = queue_.size();
  s.capacity = opts_.queue_capacity;
  s.peak_depth = peak_depth_;
  s.producer_waits = producer_waits_;
  s.parked_reads = parked_reads_gauge_.load(std::memory_order_relaxed);
  s.covered_waiters = covered_waiters_gauge_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCmdKinds; ++i) s.enqueued[i] = enqueued_[i];
  return s;
}

void ProtocolEngine::loop() {
  // Publish recovered/initial state before serving anything: with a
  // batch-end hook installed (sharded site), peers must be able to learn
  // this shard's post-recovery coverage from the very first wrapped send.
  if (batch_end_hook_) batch_end_hook_(*proto_);
  std::deque<Cmd> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock lk(mu_);
      const auto ready = [&] { return !queue_.empty() || stop_requested_; };
      if (!ready()) {
        bool have_deadline = false;
        auto deadline = std::chrono::steady_clock::time_point::max();
        for (const CoveredWaiter& w : covered_waiters_) {
          if (!w.has_deadline) continue;
          have_deadline = true;
          deadline = std::min(deadline, w.deadline);
        }
        if (have_deadline) {
          cv_consume_.wait_until(lk, deadline, ready);
        } else {
          cv_consume_.wait(lk, ready);
        }
      }
      if (queue_.empty() && stop_requested_) break;
      batch.swap(queue_);
      cv_produce_.notify_all();
    }

    in_batch_ = true;
    bool coverage_dirty = false;
    for (Cmd& cmd : batch) {
      cmd.run();
      // Local writes, peer applies and timer callbacks can all advance the
      // applied frontier that covered_by inspects.
      coverage_dirty = coverage_dirty || cmd.kind == CmdKind::kWrite ||
                       cmd.kind == CmdKind::kApplyUpdate ||
                       cmd.kind == CmdKind::kTimer;
    }
    // Publish-before-fulfill: the hook runs while every callback this batch
    // produced is still deferred, so anything a session learns from those
    // callbacks is already reflected in the published coverage tokens.
    if (coverage_dirty && batch_end_hook_) batch_end_hook_(*proto_);
    if (!parked_reads_.empty()) {
      parked_reads_.erase(
          std::remove_if(parked_reads_.begin(), parked_reads_.end(),
                         [](const auto& st) { return st->fired; }),
          parked_reads_.end());
    }
    if (!covered_waiters_.empty()) recheck_covered_waiters(!coverage_dirty);
    in_batch_ = false;
    if (!deferred_.empty()) {
      std::vector<std::function<void()>> fire;
      fire.swap(deferred_);
      for (auto& fn : fire) fn();
    }
    parked_reads_gauge_.store(parked_reads_.size(), std::memory_order_relaxed);
    covered_waiters_gauge_.store(covered_waiters_.size(),
                                 std::memory_order_relaxed);
  }
  abort_parked();
}

void ProtocolEngine::recheck_covered_waiters(bool expire_only) {
  const auto now = std::chrono::steady_clock::now();
  for (auto it = covered_waiters_.begin(); it != covered_waiters_.end();) {
    const bool expired = it->has_deadline && now >= it->deadline;
    if (expired || !expire_only) {
      if (proto_->covered_by(it->token)) {
        auto cb = it->cb;
        defer([cb] { (*cb)(true); });
        it = covered_waiters_.erase(it);
        continue;
      }
      if (expired) {
        auto cb = it->cb;
        defer([cb] { (*cb)(false); });
        it = covered_waiters_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void ProtocolEngine::abort_parked() {
  for (const auto& st : parked_reads_) {
    if (!st->fired) st->cb(std::nullopt);
  }
  parked_reads_.clear();
  for (const CoveredWaiter& w : covered_waiters_) (*w.cb)(std::nullopt);
  covered_waiters_.clear();
  parked_reads_gauge_.store(0, std::memory_order_relaxed);
  covered_waiters_gauge_.store(0, std::memory_order_relaxed);
}

}  // namespace ccpr::server
