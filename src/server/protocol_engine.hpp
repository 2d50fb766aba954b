// ProtocolEngine: the single-writer core of a site server (or of one
// engine shard of a sharded site — see server/sharded_engine.hpp).
//
// One apply thread owns the causal::IProtocol instance exclusively; nothing
// else ever touches it (the protocols assert this — see the Services
// re-entrancy contract in causal/protocol.hpp). Everything that used to
// contend on SiteServer's big mutex is now a *producer*: reactor loop
// threads, the transport delivery thread and the timer thread enqueue typed
// commands onto one MPSC queue and hand the engine a callback. The async
// API below is the only way in; blocking callers (startup gates, tools,
// tests) wrap it with util::block_on.
//
// Why this shape scales: protocol work is short and strictly serial anyway
// (causal metadata has no exploitable intra-site parallelism), so the old
// mutex bought no concurrency — it only bought contention, with every
// producer paying wake-up/convoy costs on the protocol's critical path. The
// queue turns that into a hand-off: producers pay one short queue-lock
// critical section and the apply thread drains whole batches per wakeup.
// The queue bound is admission control for the peer-side producers (peer
// delivery, timers, catch-up ticks, envelope admission); client ops enqueue
// unbounded, and their backpressure is the reactor's per-connection
// in-flight cap.
//
// Callback discipline: callbacks are invoked exactly once — with a value on
// success, with std::nullopt if the engine is stopped or stopping. They
// fire on the apply thread, but *deferred to the end of the batch* that
// produced the result, after the batch-end hook has run. That ordering is
// what makes cross-shard dependency tokens sound: the hook publishes this
// shard's coverage tokens, so by the time any session observes a
// completion, the published tokens already cover everything that session
// saw (see sharded_engine.hpp). Callbacks may call the async API freely
// (those enqueues never block) but must never wait on a result.
//
// Waiting without holding locks across protocol calls:
//   * reads that RemoteFetch complete later — the continuation fires on the
//     apply thread during a subsequent message apply;
//   * covered_by waits — waiters are parked engine-side and re-checked
//     after every coverage-changing command, with a deadline (or without
//     one, for the sharded engine's envelope admission).
// On stop() every parked waiter and never-completed read is aborted, and
// callbacks get std::nullopt (the server maps that to kShuttingDown).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "causal/protocol.hpp"
#include "metrics/metrics.hpp"
#include "net/message.hpp"
#include "server/durability.hpp"

namespace ccpr::server {

class ProtocolEngine {
 public:
  /// Command classes, for queue accounting (and because the mix is what a
  /// metrics scrape wants to see).
  enum class CmdKind : std::uint8_t {
    kWrite = 0,
    kRead,
    kSnapshot,
    kToken,
    kCovered,
    kStatus,
    kApplyUpdate,
    kTimer,
    kCatchup,  ///< anti-entropy control traffic (kCatchupReq/Resp)
    kKindCount  // sentinel
  };
  static constexpr std::size_t kCmdKinds =
      static_cast<std::size_t>(CmdKind::kKindCount);
  static const char* kind_name(CmdKind k) noexcept;

  struct Options {
    /// Queue depth at which bounded producers (peer delivery, timers,
    /// catch-up ticks, envelope admission) block. Client ops never wait.
    std::size_t queue_capacity = 4096;
  };

  struct QueueStats {
    std::uint64_t depth = 0;        ///< commands waiting right now
    std::uint64_t capacity = 0;
    std::uint64_t peak_depth = 0;
    std::uint64_t producer_waits = 0;  ///< enqueues that hit the bound
    std::uint64_t parked_reads = 0;    ///< RemoteFetch reads in flight
    std::uint64_t covered_waiters = 0; ///< parked covered_by waits
    std::uint64_t enqueued[kCmdKinds] = {};  ///< per-kind admission counts
    std::uint64_t enqueued_total() const noexcept {
      std::uint64_t t = 0;
      for (const auto v : enqueued) t += v;
      return t;
    }
    /// Add another shard's counters (site-level totals).
    void accumulate(const QueueStats& o) noexcept {
      depth += o.depth;
      capacity += o.capacity;
      peak_depth += o.peak_depth;
      producer_waits += o.producer_waits;
      parked_reads += o.parked_reads;
      covered_waiters += o.covered_waiters;
      for (std::size_t k = 0; k < kCmdKinds; ++k) enqueued[k] += o.enqueued[k];
    }
  };

  struct WriteResult {
    causal::WriteId id;
    std::uint64_t lamport = 0;  ///< 0 when the var is not locally replicated
  };

  /// Everything the status and metrics surfaces read from one engine,
  /// taken in a single apply slot so its fields agree with each other.
  struct Report {
    /// Protocol counters, with the log_entries and meta_state_bytes gauges
    /// set to their current values.
    metrics::Metrics protocol;
    std::uint64_t pending_updates = 0;
    store::EngineStats store;
    /// Defaults when the engine has no durability layer.
    Durability::Stats durability;
    Durability::CatchupProgress catchup;
    QueueStats queue;

    /// Fold another shard's report into this one (site totals).
    void merge(const Report& o);
  };

  using WriteCb = std::function<void(std::optional<WriteResult>)>;
  using ReadCb = std::function<void(std::optional<causal::Value>)>;
  using SnapshotCb =
      std::function<void(std::optional<std::vector<causal::Value>>)>;
  using TokenCb =
      std::function<void(std::optional<std::vector<std::uint8_t>>)>;
  using CoveredCb = std::function<void(std::optional<bool>)>;
  using ReportCb = std::function<void(std::optional<Report>)>;
  /// Batch-end hook: runs on the apply thread after every batch that may
  /// have advanced the applied frontier (writes, peer applies, timers) and
  /// once at loop start (so recovered state is visible), always *before*
  /// that batch's deferred callbacks fire. The sharded engine publishes
  /// this shard's coverage tokens here.
  using BatchEndHook = std::function<void(causal::IProtocol&)>;

  explicit ProtocolEngine(Options opts);
  ~ProtocolEngine();

  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  /// The engine takes exclusive ownership of the protocol; `proto_metrics`
  /// is the sink the protocol's Services points at (read only on the apply
  /// thread from here on). Must be called once, before start(); nobody else
  /// may touch either afterwards.
  void adopt_protocol(std::unique_ptr<causal::IProtocol> proto,
                      metrics::Metrics* proto_metrics);

  /// Attach the durability layer (WAL + durable channels + catch-up).
  /// `transport_send` is where stamped outbound traffic ultimately goes.
  /// Must be called before recover()/start(); at most once.
  void configure_durability(Durability::Options opts,
                            std::function<void(net::Message)> transport_send);
  /// Replay the WAL through the adopted protocol. Runs on the calling
  /// thread; must precede start(). No-op without configure_durability().
  /// Returns false (engine unusable) with `*err` set on failure.
  bool recover(std::string* err);

  /// Install the batch-end hook. Must precede start(); at most once.
  void set_batch_end_hook(BatchEndHook hook);

  /// Launch the apply thread. The protocol must already be adopted.
  void start();
  /// Drain queued commands, abort parked reads/waiters, join the apply
  /// thread. Producers blocked on the queue bound return, and every
  /// callback still pending observes std::nullopt. Idempotent.
  void stop();
  bool running() const noexcept;

  // ---- async producer API (reactor threads, sharded-engine plumbing) ----
  // Only post_covered_callback(bounded=true) may wait on the queue bound
  // (client backpressure lives at the connection layer); the callback
  // always fires exactly once.

  /// `local_replica` tells the engine whether peek(x) is meaningful here
  /// (the caller owns the replica map; the engine stays protocol-only).
  void async_write(causal::VarId x, std::string data, bool local_replica,
                   WriteCb cb);
  void async_read(causal::VarId x, ReadCb cb);
  /// Causally consistent multi-key cut; all vars must be locally replicated
  /// (the caller validates — the engine just executes in one apply slot).
  void async_snapshot(std::vector<causal::VarId> xs, SnapshotCb cb);
  void async_token(causal::SiteId target, TokenCb cb);
  /// Wait until the protocol covers `token`, up to `wait_us`; the verdict is
  /// false on timeout.
  void async_covered(std::vector<std::uint8_t> token, std::uint64_t wait_us,
                     CoveredCb cb);
  /// Deadline-less covered wait for the sharded engine's envelope
  /// admission: cb(true) once the token is covered, cb(nullopt) if the
  /// engine stops first (cb may fire synchronously in that case).
  /// `bounded=true` blocks on the queue bound — only callable from
  /// delivery/client threads; pass false from apply-thread contexts.
  void post_covered_callback(std::vector<std::uint8_t> token, CoveredCb cb,
                             bool bounded);
  /// One Report from one apply slot. A stopped-and-joined engine answers
  /// from its quiescent state, synchronously on the calling thread; only a
  /// stop() still in flight yields std::nullopt. Never call it from an
  /// apply thread: the stopped-engine path waits on stop().
  void async_report(ReportCb cb);

  // ---- peer-side producers (bounded by default, no callback) ----

  /// Transport delivery: enqueue a peer message apply. Blocks only on the
  /// queue bound (with `bounded=false` it never blocks — required when the
  /// caller is another shard's apply thread releasing a parked envelope);
  /// drops the message if the engine is stopped (shutdown races only — a
  /// live engine never drops).
  void apply_message(net::Message msg, bool bounded = true);
  /// Timer thread: marshal a Services::schedule callback onto the apply
  /// thread. Dropped if the engine is stopped.
  void post_timer(std::function<void()> fn);
  /// Enqueue one anti-entropy round (watermark announcements, batch-policy
  /// WAL sync, checkpoint-if-due). Dropped if the engine is stopped.
  void post_catchup_tick();

  // ---- apply-thread entry points (Services callbacks) ----

  /// Services::send target: runs *inside* protocol calls on the apply
  /// thread (or the recovering thread during replay) — never enqueues.
  /// Stamps/retains updates and forwards to the transport.
  void protocol_send(net::Message msg);
  /// Services::persist_meta_merge target (same threading contract).
  void persist_meta_merge(causal::VarId x, causal::SiteId responder,
                          const std::uint8_t* data, std::size_t len);

  QueueStats queue_stats() const;

 private:
  struct Cmd {
    CmdKind kind;
    std::function<void()> run;  ///< executes on the apply thread
  };

  /// A read whose RemoteFetch continuation has not fired yet.
  struct ReadState {
    ReadCb cb;
    bool fired = false;  ///< apply-thread-only
  };

  struct CoveredWaiter {
    std::vector<std::uint8_t> token;
    bool has_deadline = true;
    std::chrono::steady_clock::time_point deadline{};
    std::shared_ptr<CoveredCb> cb;
  };

  /// Enqueue; returns false if the engine is stopped (command not queued).
  /// `bounded` enqueues block while the queue is at capacity; unbounded
  /// ones never wait (apply threads and engine callbacks must use those to
  /// stay deadlock-free).
  bool enqueue(CmdKind kind, std::function<void()> run, bool bounded);
  /// Run `fn` now, or — inside a batch — after the batch-end hook.
  void defer(std::function<void()> fn);
  /// True iff the apply thread is gone for good (stopped and joined, or
  /// never started) — direct protocol reads are then race-free.
  bool quiescent() const;
  void loop();
  void recheck_covered_waiters(bool expire_only);
  void abort_parked();
  /// Shared body of async_covered and post_covered_callback.
  void enqueue_covered(std::vector<std::uint8_t> token, bool has_deadline,
                       std::chrono::steady_clock::time_point deadline,
                       CoveredCb cb, bool bounded);
  /// Apply thread, or a quiescent engine under lifecycle_mu_.
  Report make_report();

  Options opts_;
  std::unique_ptr<causal::IProtocol> proto_;
  metrics::Metrics* proto_metrics_ = nullptr;  ///< apply-thread-only reads
  /// Apply-thread-only after recover(); null when the server runs without
  /// persistence or catch-up (e.g. unit-test engines).
  std::unique_ptr<Durability> durability_;
  BatchEndHook batch_end_hook_;  ///< apply-thread-only after start()

  /// Serializes start()/stop() against each other (two concurrent stop()s
  /// must not both reach the join) and against the quiescent-fallback
  /// protocol reads in async_report(). Lock order:
  /// lifecycle_mu_ before mu_; never taken on the apply thread.
  mutable std::mutex lifecycle_mu_;
  mutable std::mutex mu_;
  std::condition_variable cv_produce_;  ///< queue has room
  std::condition_variable cv_consume_;  ///< queue non-empty / stopping
  std::deque<Cmd> queue_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::uint64_t peak_depth_ = 0;
  std::uint64_t producer_waits_ = 0;
  std::uint64_t enqueued_[kCmdKinds] = {};
  /// Parked-work gauges mirrored out of the apply thread for queue_stats().
  std::atomic<std::uint64_t> parked_reads_gauge_{0};
  std::atomic<std::uint64_t> covered_waiters_gauge_{0};

  std::thread apply_thread_;

  // ---- apply-thread-private state (no locks needed) ----
  std::vector<std::shared_ptr<ReadState>> parked_reads_;
  /// covered_by waiters parked until coverage or deadline.
  std::vector<CoveredWaiter> covered_waiters_;
  /// Callbacks deferred to the end of the current batch (fired after the
  /// batch-end hook; see the callback-discipline comment above).
  std::vector<std::function<void()>> deferred_;
  bool in_batch_ = false;
};

}  // namespace ccpr::server
