// The protocol interface every causal-memory algorithm implements.
//
// A protocol instance is the per-site state machine of one algorithm. It is
// runtime-agnostic: all side effects go through the Services struct, so the
// same object runs on the deterministic simulator and on the TCP
// runtime. Blocking constructs from the paper are expressed event-style:
//   * the "wait until <activation predicate>" of an update becomes a pending
//     buffer that is re-scanned after every apply;
//   * the synchronous RemoteFetch becomes a continuation resumed when the
//     fetch response message arrives.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "causal/types.hpp"
#include "net/message.hpp"
#include "net/wire.hpp"
#include "sim/scheduler.hpp"
#include "store/engine/value_engine.hpp"

namespace ccpr::metrics {
struct Metrics;
}
namespace ccpr::checker {
class HistoryRecorder;
}

namespace ccpr::causal {

/// Everything a protocol may do to the outside world.
///
/// Re-entrancy contract (single-writer): a protocol instance is NOT
/// thread-safe. All IProtocol entry points (write/read/on_message/
/// coverage_token/covered_by) must be invoked from one logical execution
/// context at a time — concurrent calls are a bug, asserted by ProtocolBase.
/// Each runtime discharges the contract its own way: the simulator runs
/// everything on one thread, and the TCP runtime funnels every command
/// through the single-writer server::ProtocolEngine apply thread. The
/// callbacks below inherit obligations from this:
///   * `send` is invoked synchronously from inside protocol calls; it must
///     not call back into the same protocol instance (it may enqueue).
///   * `schedule` callbacks fire on runtime-owned timer machinery; the
///     runtime must marshal them back into the protocol's execution context
///     (scheduler event, cluster mutex, engine command) before they touch
///     the protocol — they count as protocol entry points when they run.
struct Services {
  /// Asynchronous message send; the protocol fills msg.src/dst.
  std::function<void(net::Message)> send;
  /// Current time in microseconds (virtual on the simulator, monotonic wall
  /// time on the TCP runtime); used for latency accounting only.
  std::function<sim::SimTime()> now;
  /// Optional timer: run `fn` after `delay` microseconds. Enables the §V
  /// availability feature (RemoteFetch timeout + secondary replica). Null
  /// on runtimes without timers; the feature degrades to no-timeout.
  std::function<void(sim::SimTime delay, std::function<void()> fn)> schedule;
  /// Per-site metrics sink (required).
  metrics::Metrics* metrics = nullptr;
  /// Optional history recorder for the offline causal checker.
  checker::HistoryRecorder* recorder = nullptr;
  /// Optional durability hook: invoked synchronously just before a
  /// fetch-response metadata merge with the raw metadata bytes, so a
  /// write-ahead log can record the merge for replay (fetch merges are the
  /// one causal-state mutation not reconstructible from logged writes and
  /// updates). Same obligations as `send`: must not re-enter the protocol.
  std::function<void(VarId x, SiteId responder, const std::uint8_t* data,
                     std::size_t len)>
      persist_meta_merge;
  /// Optional failure-detector view: returns true while the runtime
  /// suspects `site` unreachable. Fetch routing ranks suspected replicas
  /// behind healthy ones (ReplicaMap::fetch_target_ranked overload). Null =
  /// no failure detector, every site presumed healthy. Called on the
  /// protocol thread; must be cheap and non-blocking (e.g. an atomic load).
  std::function<bool(SiteId)> peer_suspected;
};

using ReadContinuation = std::function<void(const Value&)>;

class IProtocol {
 public:
  virtual ~IProtocol() = default;

  /// Perform w_i(x)v. Completes synchronously (propagation is async).
  virtual void write(VarId x, std::string data) = 0;

  /// Perform r_i(x). `k` is invoked with the value — synchronously if the
  /// variable is locally replicated, otherwise when the RemoteFetch response
  /// arrives. `k` may issue further operations.
  virtual void read(VarId x, ReadContinuation k) = 0;

  /// Deliver a transport message addressed to this site.
  virtual void on_message(const net::Message& msg) = 0;

  /// Identity of the most recent local write (seq 0 if none yet). Lets a
  /// serving layer report the WriteId of the write() it just performed —
  /// e.g. the site server returns it to the client so client-side history
  /// recording can feed the offline checker.
  virtual WriteId last_write_id() const = 0;

  /// Inspect the locally stored value of x without generating a read event
  /// (used by the convergence auditor and tests; not part of the paper's
  /// operation model).
  virtual const Value& peek(VarId x) const = 0;

  // ---- session migration (client handoff between sites) ----
  //
  // A client that moves from site A to site B carries A's causal context;
  // B must catch up before serving it or the client loses its session
  // guarantees (the offline checker cannot flag this: the client's
  // operations are recorded under two different application processes).
  // The token is exactly the freshness requirement the RemoteFetch gating
  // already computes: "everything in A's causal past destined to B".

  /// Serialize this site's coverage requirement for `target`.
  virtual std::vector<std::uint8_t> coverage_token(SiteId target) = 0;
  /// Whether this site has applied everything a token requires.
  virtual bool covered_by(const std::vector<std::uint8_t>& token) = 0;

  // ---- durability (WAL checkpoints + crash recovery; TCP runtime) ----
  //
  // The four hooks below exist so a runtime with a write-ahead log can
  // checkpoint a protocol's complete state and rebuild it after a crash.
  // Defaults are no-ops so runtimes (and protocols) without persistence
  // are unaffected.

  /// Serialize the complete protocol state — store, causal metadata,
  /// pending (not yet activated) updates — into `enc`.
  virtual void serialize_state(net::Encoder& enc) const { (void)enc; }
  /// Restore state produced by serialize_state on a freshly constructed
  /// instance. Returns false on a malformed buffer; the instance is then
  /// unusable and must be discarded.
  virtual bool restore_state(net::Decoder& dec) {
    (void)dec;
    return true;
  }
  /// Replay a fetch-response metadata merge previously recorded via
  /// Services::persist_meta_merge (same bytes, same responder).
  virtual void replay_meta_merge(VarId x, SiteId responder,
                                 const std::uint8_t* data, std::size_t len) {
    (void)x;
    (void)responder;
    (void)data;
    (void)len;
  }
  /// Conservatively fold every per-variable LastWriteOn record into the
  /// site's main causal clock/log. Recovery calls this before replaying a
  /// logged local write: the original write's metadata may have absorbed
  /// read-path merges that were never logged, and sealing first makes the
  /// regenerated metadata a superset — which can only delay activation at
  /// peers, never violate causality.
  virtual void merge_all_local_meta() {}

  /// The durability layer finished a WAL checkpoint for generation `gen`.
  /// Lets the value engine rotate disk-backed state (cold-value spill
  /// segments) in step with checkpoint generations. Counts as a protocol
  /// entry point (single-writer contract applies). Default: no-op.
  virtual void on_durable_checkpoint(std::uint64_t gen) { (void)gen; }

  /// Value-engine statistics for this site's local store (keys, resident
  /// bytes, probe lengths, spill traffic). Zeroed stats by default so
  /// non-ProtocolBase implementations need not care.
  virtual store::EngineStats store_stats() const { return {}; }

  /// Updates received but whose activation predicate is still false.
  virtual std::size_t pending_update_count() const = 0;

  /// Entries currently held in the local causal log (algorithm-specific
  /// unit; see DESIGN.md "space" notes).
  virtual std::uint64_t log_entry_count() const = 0;

  /// Serialized footprint in bytes of all causal metadata at this site
  /// (clocks, logs, per-variable LastWriteOn records) — the paper's space
  /// metric, excluding the replicated values themselves.
  virtual std::uint64_t meta_state_bytes() const = 0;

  virtual Algorithm algorithm() const = 0;
};

}  // namespace ccpr::causal
