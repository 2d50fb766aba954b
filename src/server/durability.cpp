#include "server/durability.hpp"

#include <chrono>
#include <random>
#include <sstream>
#include <utility>

#include "net/wire.hpp"
#include "util/assert.hpp"

namespace ccpr::server {

namespace {

// A channel epoch must be unique per process *lifetime that created it* and
// nonzero (0 marks unstamped traffic). random_device plus a clock mix guards
// against platforms where random_device is deterministic.
std::uint64_t random_epoch() {
  std::random_device rd;
  std::uint64_t e = (static_cast<std::uint64_t>(rd()) << 32) | rd();
  e ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  if (e == 0) e = 1;
  return e;
}

std::string_view enc_view(const net::Encoder& enc) {
  return {reinterpret_cast<const char*>(enc.buffer().data()),
          enc.buffer().size()};
}

constexpr std::uint8_t kCheckpointVersion = 1;

}  // namespace

Durability::Durability(Options opts, std::function<void(net::Message)> send)
    : opts_(std::move(opts)), send_(std::move(send)) {
  CCPR_EXPECTS(opts_.sites > 0 && opts_.self < opts_.sites);
  CCPR_EXPECTS(send_ != nullptr);
  if (opts_.checkpoint_every == 0) opts_.checkpoint_every = 1;
  if (opts_.catchup_burst == 0) opts_.catchup_burst = 1;
  out_.resize(opts_.sites);
  in_.resize(opts_.sites);
}

bool Durability::recover(causal::IProtocol* proto, std::string* err) {
  CCPR_EXPECTS(proto != nullptr);
  if (opts_.data_dir.empty()) {
    epoch_ = random_epoch();
    return true;
  }

  Wal::Options wopts;
  wopts.dir = opts_.data_dir;
  wopts.site = opts_.self;
  wopts.sync = opts_.wal_sync;
  Wal::OpenResult opened;
  wal_ = Wal::open(wopts, &opened, err);
  if (!wal_) return false;
  stats_.wal_enabled = true;

  if (opened.created || opened.records.empty()) {
    // Fresh site: mint an epoch and make it the WAL's first record so the
    // next incarnation reuses it (receivers then treat the restarted site
    // as the same channel and can detect gaps instead of resetting).
    epoch_ = random_epoch();
    net::Encoder enc;
    enc.varint(epoch_);
    if (!wal_->append(Wal::kEpoch, enc_view(enc))) {
      if (err) *err = "wal: failed to append epoch record";
      return false;
    }
    return true;
  }

  recovered_ = true;
  const Wal::Record& head = opened.records.front();
  if (head.type == Wal::kEpoch) {
    net::Decoder dec(reinterpret_cast<const std::uint8_t*>(head.payload.data()),
                     head.payload.size());
    epoch_ = dec.varint();
    if (!dec.ok() || epoch_ == 0) {
      if (err) *err = "wal: malformed epoch record";
      return false;
    }
  } else if (head.type == Wal::kCheckpoint) {
    if (!restore_checkpoint(proto, head.payload, err)) return false;
  } else {
    if (err) *err = "wal: generation does not start with epoch or checkpoint";
    return false;
  }

  replaying_ = true;
  const bool ok = replay_tail(proto, opened.records, 1, err);
  replaying_ = false;
  if (!ok) return false;
  // Conservative seal: local reads may have merged fetch-response metadata
  // into per-variable last-write records in ways the WAL does not capture
  // update-by-update; fold everything local into the write context once so
  // post-recovery writes carry a superset of the pre-crash dependencies.
  proto->merge_all_local_meta();
  maybe_checkpoint(proto);
  return true;
}

std::string Durability::encode_checkpoint(causal::IProtocol* proto) const {
  net::Encoder enc;
  enc.u8(kCheckpointVersion);
  enc.varint(epoch_);
  enc.varint(opts_.sites);
  for (const ChannelIn& ch : in_) {
    enc.varint(ch.epoch);
    enc.varint(ch.applied);
  }
  for (const ChannelOut& o : out_) enc.varint(o.next_seq);
  proto->serialize_state(enc);
  return std::string(enc_view(enc));
}

bool Durability::restore_checkpoint(causal::IProtocol* proto,
                                    const std::string& payload,
                                    std::string* err) {
  net::Decoder dec(reinterpret_cast<const std::uint8_t*>(payload.data()),
                   payload.size());
  if (dec.u8() != kCheckpointVersion) {
    if (err) *err = "wal: unsupported checkpoint version";
    return false;
  }
  epoch_ = dec.varint();
  const std::uint64_t n = dec.varint();
  if (!dec.ok() || epoch_ == 0 || n != opts_.sites) {
    if (err) *err = "wal: checkpoint header mismatch (site count or epoch)";
    return false;
  }
  for (ChannelIn& ch : in_) {
    ch.epoch = dec.varint();
    ch.applied = dec.varint();
  }
  for (ChannelOut& o : out_) {
    o.next_seq = dec.varint();
    // Retention before the checkpoint is not persisted; peers asking for
    // older seqs will be fast-forwarded (and the skip reported).
    o.first_retained = o.next_seq + 1;
  }
  if (!dec.ok() || !proto->restore_state(dec)) {
    if (err) *err = "wal: checkpoint state failed to decode";
    return false;
  }
  return true;
}

bool Durability::replay_tail(causal::IProtocol* proto,
                             const std::vector<Wal::Record>& records,
                             std::size_t begin, std::string* err) {
  for (std::size_t i = begin; i < records.size(); ++i) {
    const Wal::Record& rec = records[i];
    net::Decoder dec(reinterpret_cast<const std::uint8_t*>(rec.payload.data()),
                     rec.payload.size());
    switch (rec.type) {
      case Wal::kLocalWrite: {
        const auto x = static_cast<causal::VarId>(dec.varint());
        std::string data = dec.bytes();
        if (!dec.ok()) break;
        // Seal before each replayed write, not just once at the end: the
        // original write's metadata may have depended on a fetch-response
        // merge the WAL records only partially. The superset is safe; a
        // subset could activate out of causal order at remote sites.
        proto->merge_all_local_meta();
        proto->write(x, std::move(data));
        continue;
      }
      case Wal::kPeerUpdate: {
        net::Message msg;
        msg.kind = net::MsgKind::kUpdate;
        msg.src = static_cast<causal::SiteId>(dec.varint());
        msg.dst = opts_.self;
        msg.chan_epoch = dec.varint();
        msg.chan_seq = dec.varint();
        msg.payload_bytes = static_cast<std::uint32_t>(dec.varint());
        const std::string body = dec.bytes();
        if (!dec.ok() || msg.src >= opts_.sites) break;
        msg.body.assign(body.begin(), body.end());
        if (msg.chan_epoch != 0) {
          ChannelIn& ch = in_[msg.src];
          if (msg.chan_epoch != ch.epoch) {
            ch.epoch = msg.chan_epoch;
            ch.applied = 0;
          }
          if (msg.chan_seq <= ch.applied) continue;  // pre-checkpoint dup
          ch.applied = msg.chan_seq;
        }
        proto->on_message(msg);
        continue;
      }
      case Wal::kMetaMerge: {
        const auto x = static_cast<causal::VarId>(dec.varint());
        const auto responder = static_cast<causal::SiteId>(dec.varint());
        const std::string meta = dec.bytes();
        if (!dec.ok()) break;
        proto->replay_meta_merge(
            x, responder, reinterpret_cast<const std::uint8_t*>(meta.data()),
            meta.size());
        continue;
      }
      case Wal::kEpoch: {
        // Only legal as the head record, which replay starts after.
        break;
      }
      case Wal::kCheckpoint: {
        // Checkpoints start a fresh generation; one mid-file means the
        // rotation logic failed.
        break;
      }
      default:
        break;
    }
    if (err) {
      *err = "wal: malformed record type " + std::to_string(rec.type) +
             " at index " + std::to_string(i);
    }
    return false;
  }
  return true;
}

void Durability::append(Wal::RecordType type, const net::Encoder& enc) {
  if (!wal_ || replaying_) return;
  wal_->append(type, enc_view(enc));
  ++records_since_checkpoint_;
}

void Durability::on_local_write(causal::VarId x, const std::string& data) {
  if (!wal_ || replaying_) return;
  net::Encoder enc(data.size() + 16);
  enc.varint(x);
  enc.bytes(data);
  append(Wal::kLocalWrite, enc);
}

void Durability::on_protocol_send(net::Message msg) {
  if (msg.kind == net::MsgKind::kUpdate) {
    CCPR_ASSERT(msg.dst < opts_.sites);
    ChannelOut& o = out_[msg.dst];
    msg.chan_epoch = epoch_;
    msg.chan_seq = ++o.next_seq;
    // Wrap before retention so re-sends carry the original-send envelope
    // (see Options::wrap_update). During replay the shard token caches are
    // empty, so replay-retained envelopes carry no cross-shard demands —
    // deliberately: replay-time frontiers could reference writes retained
    // *after* this one and deadlock the receiver.
    if (opts_.wrap_update) msg = opts_.wrap_update(std::move(msg));
    o.retained.push_back(msg);
    if (o.retained.size() > kCatchupRetain) {
      o.retained.pop_front();
      o.first_retained = o.next_seq - o.retained.size() + 1;
    }
    if (replaying_) return;  // replay re-derivation; peers already have it
    send_(std::move(msg));
    return;
  }
  // Fetch traffic is request/response state that replay re-creates from
  // scratch; re-sending stale fetches during recovery would only confuse
  // peers (and the original requester is gone).
  if (replaying_) return;
  send_(std::move(msg));
}

void Durability::on_inbound(causal::IProtocol* proto, net::Message msg) {
  switch (msg.kind) {
    case net::MsgKind::kUpdate:
      handle_update(proto, std::move(msg));
      return;
    case net::MsgKind::kCatchupReq:
      handle_catchup_req(msg);
      return;
    case net::MsgKind::kCatchupResp:
      handle_catchup_resp(msg);
      return;
    default:
      proto->on_message(msg);
      return;
  }
}

void Durability::handle_update(causal::IProtocol* proto, net::Message&& msg) {
  if (msg.src >= opts_.sites) return;
  const auto log_and_apply = [&] {
    net::Encoder enc(msg.body.size() + 24);
    enc.varint(msg.src);
    enc.varint(msg.chan_epoch);
    enc.varint(msg.chan_seq);
    enc.varint(msg.payload_bytes);
    enc.bytes({reinterpret_cast<const char*>(msg.body.data()),
               msg.body.size()});
    append(Wal::kPeerUpdate, enc);
    proto->on_message(msg);
    maybe_checkpoint(proto);
  };
  if (msg.chan_epoch == 0) {
    // Unstamped sender (no durability layer on its side): no channel to
    // track, admit unconditionally.
    log_and_apply();
    return;
  }
  ChannelIn& ch = in_[msg.src];
  if (msg.chan_epoch != ch.epoch) {
    // New sender incarnation that lost its WAL (a persistent restart keeps
    // its epoch): its seq space restarted, so ours must too.
    ch = ChannelIn{};
    ch.epoch = msg.chan_epoch;
  }
  if (msg.chan_seq <= ch.applied) {
    ++stats_.dup_drops;
    return;
  }
  if (msg.chan_seq != ch.applied + 1) {
    // Gap: updates were produced while this site was down (or overflowed
    // the sender's bounded outbound queue while unreachable). Drop and ask
    // for the range; the resend arrives in FIFO order with original stamps.
    ++stats_.gap_drops;
    if (!ch.req_inflight) {
      ch.req_inflight = true;
      send_catchup_req(msg.src);
    }
    return;
  }
  ch.applied = msg.chan_seq;
  if (ch.have_target && msg.chan_seq <= ch.target) ++stats_.catchup_updates;
  log_and_apply();
  // Streaming pull: the responder re-sends in bounded chunks; finishing a
  // chunk while still short of the announced target means the rest of the
  // backlog is waiting at the sender, not in flight — ask for the next
  // chunk now instead of idling until the anti-entropy tick.
  ChannelIn& after = in_[msg.src];
  if (after.have_target && after.applied < after.target &&
      after.applied >= after.chunk_end && !after.req_inflight) {
    after.req_inflight = true;
    send_catchup_req(msg.src);
  }
}

void Durability::send_catchup_req(causal::SiteId peer) {
  net::Message m;
  m.kind = net::MsgKind::kCatchupReq;
  m.src = opts_.self;
  m.dst = peer;
  net::Encoder enc;
  enc.varint(in_[peer].epoch);
  enc.varint(in_[peer].applied);
  m.body = enc.buffer();
  ++stats_.catchup_reqs_sent;
  send_(std::move(m));
}

void Durability::handle_catchup_req(const net::Message& msg) {
  if (msg.src >= opts_.sites) return;
  net::Decoder dec(msg.body);
  const std::uint64_t known_epoch = dec.varint();
  std::uint64_t watermark = dec.varint();
  if (!dec.ok()) return;
  ++stats_.catchup_reqs_recv;
  ChannelOut& o = out_[msg.src];
  // A requester that has never seen our current epoch knows nothing about
  // this seq space: everything retained is news to it. Clamp a bogus
  // watermark so trimming cannot push first_retained past next_seq + 1.
  if (known_epoch != epoch_) watermark = 0;
  if (watermark > o.next_seq) watermark = o.next_seq;
  while (!o.retained.empty() && o.first_retained <= watermark) {
    o.retained.pop_front();
    ++o.first_retained;
  }
  // Re-send a bounded chunk, not the whole backlog: a burst larger than
  // the per-peer outbound queue cap would be cut down by its drop-oldest
  // policy — and the dropped prefix is exactly what the requester needs
  // next in FIFO order. The requester pulls the following chunk as soon
  // as it applies chunk_end (see handle_update).
  const std::size_t chunk =
      std::min<std::size_t>(o.retained.size(), opts_.catchup_burst);
  const std::uint64_t chunk_end =
      chunk == 0 ? o.first_retained - 1 : o.first_retained + chunk - 1;
  net::Message resp;
  resp.kind = net::MsgKind::kCatchupResp;
  resp.src = opts_.self;
  resp.dst = msg.src;
  net::Encoder enc;
  enc.varint(epoch_);
  enc.varint(o.first_retained);
  enc.varint(o.next_seq);
  enc.varint(chunk_end);
  resp.body = enc.buffer();
  // Response first, resends after: per-channel FIFO means the requester
  // fast-forwards (if needed) before the retained updates land.
  send_(std::move(resp));
  for (std::size_t i = 0; i < chunk; ++i) {
    ++stats_.catchup_resent;
    send_(o.retained[i]);
  }
}

void Durability::handle_catchup_resp(const net::Message& msg) {
  if (msg.src >= opts_.sites) return;
  net::Decoder dec(msg.body);
  const std::uint64_t epoch = dec.varint();
  const std::uint64_t first_retained = dec.varint();
  const std::uint64_t latest = dec.varint();
  const std::uint64_t chunk_end = dec.varint();
  if (!dec.ok() || epoch == 0) return;
  ChannelIn& ch = in_[msg.src];
  if (epoch != ch.epoch) {
    ch = ChannelIn{};
    ch.epoch = epoch;
  }
  if (ch.applied + 1 < first_retained) {
    // The responder no longer retains the range we are missing. Skip it:
    // convergence for those writes now depends on other replicas, and the
    // metric records that the guarantee was degraded.
    stats_.skipped += first_retained - 1 - ch.applied;
    ch.applied = first_retained - 1;
  }
  ch.target = latest;
  ch.chunk_end = chunk_end;
  ch.have_target = true;
  ch.req_inflight = false;
  // Overlapping requests can deliver a response whose chunk was already
  // consumed by an earlier resend; without updates in flight nothing
  // would trigger the next pull until the tick. A fresh response always
  // announces a chunk past the watermark it was asked with, so this
  // cannot ping-pong.
  if (ch.applied < ch.target && ch.applied >= ch.chunk_end) {
    ch.req_inflight = true;
    send_catchup_req(msg.src);
  }
}

void Durability::on_meta_merge(causal::VarId x, causal::SiteId responder,
                               const std::uint8_t* data, std::size_t len) {
  if (!wal_ || replaying_) return;
  net::Encoder enc(len + 16);
  enc.varint(x);
  enc.varint(responder);
  enc.bytes({reinterpret_cast<const char*>(data), len});
  append(Wal::kMetaMerge, enc);
}

void Durability::tick(causal::IProtocol* proto) {
  for (causal::SiteId s = 0; s < opts_.sites; ++s) {
    if (s == opts_.self) continue;
    send_catchup_req(s);
  }
  if (wal_ && opts_.wal_sync == Wal::Sync::kBatch) wal_->sync();
  maybe_checkpoint(proto);
}

void Durability::maybe_checkpoint(causal::IProtocol* proto) {
  if (!wal_ || replaying_) return;
  if (records_since_checkpoint_ < opts_.checkpoint_every) return;
  if (wal_->checkpoint(encode_checkpoint(proto))) {
    records_since_checkpoint_ = 0;
    // The WAL just rotated to a new generation; let the value store rotate
    // its spill segment in step so every on-disk artifact belongs to the
    // generation that can recover it.
    proto->on_durable_checkpoint(wal_->generation());
  }
}

Durability::Stats Durability::stats() const {
  Stats s = stats_;
  if (wal_) s.wal = wal_->stats();
  s.retained_msgs = 0;
  for (const ChannelOut& o : out_) s.retained_msgs += o.retained.size();
  return s;
}

Durability::CatchupProgress Durability::progress() const {
  CatchupProgress p;
  p.recovered = recovered_;
  for (causal::SiteId s = 0; s < opts_.sites; ++s) {
    if (s == opts_.self) continue;
    const ChannelIn& ch = in_[s];
    if (!ch.have_target || ch.applied < ch.target) {
      p.complete = false;
      break;
    }
  }
  return p;
}

bool Durability::describe_wal(const std::string& dir, causal::SiteId site,
                              std::string* out, std::string* err) {
  Wal::InspectResult info;
  if (!Wal::inspect(dir, site, &info, err)) return false;

  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> in_epoch;
  std::vector<std::uint64_t> in_applied;
  std::vector<std::uint64_t> out_next;
  bool have_checkpoint = false;
  if (!info.checkpoint_payload.empty()) {
    net::Decoder dec(
        reinterpret_cast<const std::uint8_t*>(info.checkpoint_payload.data()),
        info.checkpoint_payload.size());
    if (dec.u8() == kCheckpointVersion) {
      epoch = dec.varint();
      const std::uint64_t n = dec.varint();
      if (dec.ok() && n > 0 && n < 4096) {
        in_epoch.resize(n);
        in_applied.resize(n);
        out_next.resize(n);
        for (std::uint64_t s = 0; s < n; ++s) {
          in_epoch[s] = dec.varint();
          in_applied[s] = dec.varint();
        }
        for (std::uint64_t s = 0; s < n; ++s) out_next[s] = dec.varint();
        have_checkpoint = dec.ok();
      }
    }
    if (!have_checkpoint) {
      if (err) *err = "wal-stat: checkpoint payload failed to decode";
      return false;
    }
  } else if (!info.epoch_payload.empty()) {
    net::Decoder dec(
        reinterpret_cast<const std::uint8_t*>(info.epoch_payload.data()),
        info.epoch_payload.size());
    epoch = dec.varint();
  }

  // Roll the tail forward over the checkpoint watermarks so the report
  // shows the *durable* per-peer frontier, not the stale checkpoint one.
  std::uint64_t tail_local_writes = 0;
  std::uint64_t tail_meta_merges = 0;
  for (const Wal::Record& rec : info.tail_after_checkpoint) {
    net::Decoder dec(reinterpret_cast<const std::uint8_t*>(rec.payload.data()),
                     rec.payload.size());
    switch (rec.type) {
      case Wal::kLocalWrite:
        ++tail_local_writes;
        break;
      case Wal::kMetaMerge:
        ++tail_meta_merges;
        break;
      case Wal::kPeerUpdate: {
        const auto src = static_cast<std::size_t>(dec.varint());
        const std::uint64_t e = dec.varint();
        const std::uint64_t q = dec.varint();
        if (!dec.ok()) break;
        if (src >= in_applied.size()) {
          in_epoch.resize(src + 1, 0);
          in_applied.resize(src + 1, 0);
        }
        if (e != in_epoch[src]) {
          in_epoch[src] = e;
          in_applied[src] = 0;
        }
        if (q > in_applied[src]) in_applied[src] = q;
        break;
      }
      default:
        break;
    }
  }

  std::ostringstream os;
  os << "wal file: " << info.file << "\n";
  os << "generation: " << info.generation << "\n";
  os << "records: " << info.records << " (" << info.bytes << " bytes";
  if (info.truncated_bytes > 0) {
    os << ", " << info.truncated_bytes << " torn-tail bytes truncated on read";
  }
  os << ")\n";
  os << "  checkpoint: " << info.counts_by_type[Wal::kCheckpoint]
     << "  local-write: " << info.counts_by_type[Wal::kLocalWrite]
     << "  peer-update: " << info.counts_by_type[Wal::kPeerUpdate]
     << "  meta-merge: " << info.counts_by_type[Wal::kMetaMerge]
     << "  epoch: " << info.counts_by_type[Wal::kEpoch] << "\n";
  os << "channel epoch: " << epoch << "\n";
  if (have_checkpoint) {
    os << "checkpoint: " << info.checkpoint_bytes << " payload bytes, "
       << info.tail_after_checkpoint.size() << " tail records to replay\n";
  } else {
    os << "checkpoint: none (full-history generation, "
       << info.tail_after_checkpoint.size() << " records to replay)\n";
  }
  os << "tail: " << tail_local_writes << " local writes, " << tail_meta_merges
     << " meta merges\n";
  os << "durable inbound watermarks (applied per peer):\n";
  for (std::size_t s = 0; s < in_applied.size(); ++s) {
    if (s == site) continue;
    os << "  site " << s << ": applied " << in_applied[s] << " (epoch "
       << in_epoch[s] << ")\n";
  }
  if (have_checkpoint) {
    os << "outbound chan_seq at checkpoint (per peer):\n";
    for (std::size_t s = 0; s < out_next.size(); ++s) {
      if (s == site) continue;
      os << "  site " << s << ": " << out_next[s] << "\n";
    }
  }
  *out = os.str();
  return true;
}

}  // namespace ccpr::server
