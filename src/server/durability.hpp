// Durability: crash recovery and anti-entropy catch-up for one site.
//
// Owned by the ProtocolEngine and — after recover() returns — touched only
// on its apply thread, so none of this state needs a lock. It wraps three
// cooperating mechanisms:
//
//  1. A write-ahead log (server/wal.hpp). Every state transition that the
//     protocol cannot re-derive is appended *before* it is applied: local
//     writes (kLocalWrite), admitted peer updates (kPeerUpdate) and causal
//     metadata merged from fetch responses (kMetaMerge). Periodic
//     checkpoints (serialized engine channel state + the protocol's own
//     serialize_state) bound replay to the tail of one generation file.
//
//  2. Update channels — the runtime's only per-channel sequencer. Every
//     outbound kUpdate is stamped with this site's channel epoch (a random
//     nonzero nonce, persisted in the WAL when data_dir is set so it
//     survives restarts, drawn fresh per process otherwise) and a dense
//     per-destination chan_seq. Receivers track (epoch, applied) per source:
//     duplicates (e.g. a transport batch resent after a reconnect) are
//     dropped, in-order updates are logged + applied, and a gap — updates
//     the sender produced while we were down or that overflowed a dead
//     peer's bounded outbound queue — triggers a kCatchupReq.
//
//  3. Anti-entropy catch-up. Senders retain a bounded window of stamped
//     kUpdate copies per destination. A kCatchupReq announces the
//     requester's durable watermark; the responder trims its retention,
//     answers with kCatchupResp {epoch, first_retained, latest, chunk_end}
//     and re-sends retained updates above the watermark *with their
//     original bodies and stamps* (regenerated metadata would violate the
//     protocols' FIFO-slot activation predicates). Re-sends are chunked
//     (catchup_burst per request): a full-backlog burst would overflow the
//     bounded per-peer transport queue, whose drop-oldest policy discards
//     exactly the next-in-FIFO-order messages and turns recovery into a
//     retransmit storm. Instead the requester pulls — when it applies
//     chunk_end and is still short of the target it immediately requests
//     the next chunk, so a backlog streams at queue-safe granularity. If
//     the watermark predates the retention window, the requester
//     fast-forwards past the un-retained prefix — the design trades
//     completeness for bounded memory and reports the skip.
//
// Recovery replays the WAL tail through the protocol's normal entry points
// with sends captured into the retention window instead of transmitted.
// Because fetch-response merges performed by reads are only partially
// logged (merge_on_local_read merges are not), replay calls the protocol's
// merge_all_local_meta() conservative seal before every replayed local
// write: superset causal metadata can only delay remote activation, never
// reorder it, so the seal is safe where a precise reconstruction would not
// be (see causal/protocol.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "causal/protocol.hpp"
#include "net/message.hpp"
#include "server/wal.hpp"

namespace ccpr::server {

class Durability {
 public:
  /// Retained stamped kUpdate copies per destination (the catch-up window).
  static constexpr std::size_t kCatchupRetain = 8192;

  struct Options {
    /// Empty => no WAL: channels and catch-up still run (they also heal
    /// bounded-queue overflow drops), but nothing survives a restart.
    std::string data_dir;
    Wal::Sync wal_sync = Wal::Sync::kAlways;
    causal::SiteId self = 0;
    std::uint32_t sites = 0;
    /// Appended records between checkpoints.
    std::uint64_t checkpoint_every = 4096;
    /// Max retained updates re-sent per kCatchupReq. Must stay below the
    /// per-peer outbound queue cap or resend bursts overflow it (dropping
    /// the oldest = next-needed messages). The requester streams a large
    /// backlog by re-requesting as each chunk completes.
    std::uint32_t catchup_burst = 64;
    /// Applied to every stamped kUpdate after channel stamping and before
    /// retention (sharded sites wrap it in a cross-shard coverage envelope
    /// here). Wrapping must happen at this point, not in `send`: catch-up
    /// re-sends replay the retained copy verbatim, and a re-send that
    /// re-wrapped with *current* tokens could demand coverage of writes
    /// that are themselves still parked behind this one at the receiver —
    /// a cross-shard deadlock. Original-send tokens only ever reference
    /// writes sent earlier, so the dependency order stays acyclic.
    /// Null = identity.
    std::function<net::Message(net::Message)> wrap_update;
  };

  struct Stats {
    bool wal_enabled = false;
    Wal::Stats wal;
    std::uint64_t catchup_updates = 0;  ///< applies covered by a catch-up target
    std::uint64_t catchup_resent = 0;   ///< retained updates re-sent to peers
    std::uint64_t catchup_reqs_sent = 0;
    std::uint64_t catchup_reqs_recv = 0;
    std::uint64_t dup_drops = 0;      ///< channel duplicates dropped
    std::uint64_t gap_drops = 0;      ///< out-of-order updates dropped
    std::uint64_t skipped = 0;        ///< fast-forwarded past un-retained seqs
    std::uint64_t retained_msgs = 0;  ///< current retention gauge
  };

  /// Startup-gate view: after a restart the server delays client service
  /// until every peer has answered a kCatchupReq and its announced latest
  /// seq has been applied (or a timeout elapses).
  struct CatchupProgress {
    bool recovered = false;  ///< prior WAL state existed at recover()
    bool complete = true;    ///< all peers' announced targets reached
  };

  /// `send` forwards to the transport; stored, called on the apply thread.
  Durability(Options opts, std::function<void(net::Message)> send);

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  /// Open the WAL (when data_dir is set) and replay it through `proto`.
  /// Must run before the engine starts, on the starting thread, with the
  /// protocol otherwise untouched. Returns false with `*err` set on I/O or
  /// decode failure.
  bool recover(causal::IProtocol* proto, std::string* err);

  // ---- apply-thread hooks (called from ProtocolEngine) ----

  /// Log a client write (write-ahead: runs just before proto->write).
  void on_local_write(causal::VarId x, const std::string& data);
  /// Stamp/retain/forward an outbound protocol send. During recovery the
  /// transport forward is suppressed (sends are replay re-derivations).
  void on_protocol_send(net::Message msg);
  /// Full inbound dispatch: channel admission + WAL for kUpdate, catch-up
  /// control for kCatchupReq/Resp, pass-through for fetch traffic.
  void on_inbound(causal::IProtocol* proto, net::Message msg);
  /// Log a fetch-response metadata merge (Services::persist_meta_merge).
  void on_meta_merge(causal::VarId x, causal::SiteId responder,
                     const std::uint8_t* data, std::size_t len);
  /// Periodic anti-entropy: announce watermarks to every peer, sync the
  /// WAL under the batch policy, checkpoint if due.
  void tick(causal::IProtocol* proto);
  /// Checkpoint if the record budget since the last one is spent. Only
  /// call at protocol-consistent points (never mid-protocol-call).
  void maybe_checkpoint(causal::IProtocol* proto);

  Stats stats() const;
  CatchupProgress progress() const;

  /// Human-readable offline WAL summary for `ccpr_client wal-stat`:
  /// record counts, checkpoint position and the per-peer durable
  /// watermarks recomputed from checkpoint + tail. Standalone (no server).
  static bool describe_wal(const std::string& dir, causal::SiteId site,
                           std::string* out, std::string* err);

 private:
  struct ChannelOut {
    std::uint64_t next_seq = 0;        ///< last stamped chan_seq
    std::uint64_t first_retained = 1;  ///< chan_seq of retained_.front()
    std::deque<net::Message> retained;
  };

  struct ChannelIn {
    std::uint64_t epoch = 0;      ///< sender's channel epoch last seen
    std::uint64_t applied = 0;    ///< last contiguously admitted chan_seq
    std::uint64_t target = 0;     ///< latest announced by kCatchupResp
    std::uint64_t chunk_end = 0;  ///< last seq of the announced resend chunk
    bool have_target = false;
    bool req_inflight = false;  ///< throttles gap-triggered requests
  };

  void append(Wal::RecordType type, const net::Encoder& enc);
  void send_catchup_req(causal::SiteId peer);
  void handle_update(causal::IProtocol* proto, net::Message&& msg);
  void handle_catchup_req(const net::Message& msg);
  void handle_catchup_resp(const net::Message& msg);
  std::string encode_checkpoint(causal::IProtocol* proto) const;
  bool restore_checkpoint(causal::IProtocol* proto, const std::string& payload,
                          std::string* err);
  bool replay_tail(causal::IProtocol* proto,
                   const std::vector<Wal::Record>& records, std::size_t begin,
                   std::string* err);

  Options opts_;
  std::function<void(net::Message)> send_;
  std::unique_ptr<Wal> wal_;
  std::uint64_t epoch_ = 0;  ///< this site's channel epoch (nonzero)
  std::vector<ChannelOut> out_;
  std::vector<ChannelIn> in_;
  std::uint64_t records_since_checkpoint_ = 0;
  bool replaying_ = false;
  bool recovered_ = false;
  Stats stats_;
};

}  // namespace ccpr::server
