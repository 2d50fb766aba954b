#include "causal/shard_group.hpp"

#include <string_view>

#include "net/wire.hpp"
#include "util/assert.hpp"

namespace ccpr::causal {

ShardGroup::ShardGroup(std::uint32_t shards, SiteId self, Services svc,
                       const ProtocolBuilder& builder)
    : map_(shards), self_(self), outer_(std::move(svc)) {
  (void)self_;
  inner_.reserve(map_.shards());
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    Services sk = outer_;
    sk.send = [this, k](net::Message m) { group_send(k, std::move(m)); };
    if (outer_.schedule) {
      // Timer callbacks are protocol entry points: applying a deferred
      // fetch/activation can cover parked cross-shard tokens, so re-scan
      // after every one.
      sk.schedule = [this](sim::SimTime delay, std::function<void()> fn) {
        outer_.schedule(delay, [this, fn = std::move(fn)] {
          fn();
          rescan_parked();
        });
      };
    }
    inner_.push_back(builder(k, std::move(sk)));
    CCPR_ASSERT(inner_.back() != nullptr);
  }
}

void ShardGroup::group_send(std::uint32_t from_shard, net::Message m) {
  if (map_.shards() == 1) {
    outer_.send(std::move(m));
    return;
  }
  std::vector<ShardToken> tokens;
  // Only messages that carry causal state forward need dependency tokens:
  // updates (the receiver must not apply w before its cross-shard past) and
  // fetch responses (the reader must not return v before v's cross-shard
  // past is applied locally). Requests are wrapped for demux only.
  if (m.kind == net::MsgKind::kUpdate || m.kind == net::MsgKind::kFetchResp) {
    tokens.reserve(map_.shards() - 1);
    for (std::uint32_t j = 0; j < map_.shards(); ++j) {
      if (j == from_shard) continue;
      tokens.push_back(ShardToken{j, inner_[j]->coverage_token(m.dst)});
    }
  }
  outer_.send(wrap_shard_envelope(from_shard, tokens, m));
}

void ShardGroup::write(VarId x, std::string data) {
  const std::uint32_t k = map_.shard_of(x);
  inner_[k]->write(x, std::move(data));
  last_write_shard_ = k;
  has_local_write_ = true;
}

void ShardGroup::read(VarId x, ReadContinuation k) {
  inner_[map_.shard_of(x)]->read(x, std::move(k));
}

void ShardGroup::on_message(const net::Message& msg) {
  if (map_.shards() == 1) {
    inner_[0]->on_message(msg);
    return;
  }
  if (msg.kind != net::MsgKind::kShardEnvelope) {
    // A sharded site only exchanges envelopes with peers (heartbeats are
    // handled by the runtime before the protocol sees them).
    CCPR_DEBUG_ASSERT(false && "non-envelope message at sharded site");
    ++malformed_;
    return;
  }
  std::optional<ShardEnvelope> env = unwrap_shard_envelope(msg);
  if (!env || env->shard >= map_.shards()) {
    ++malformed_;
    return;
  }
  parked_[{msg.src, env->shard}].push_back(std::move(*env));
  ++parked_total_;
  rescan_parked();
}

bool ShardGroup::head_ready(const ShardEnvelope& env) {
  for (const ShardToken& t : env.tokens) {
    if (t.shard >= map_.shards()) return true;  // stale token: ignore
    if (!inner_[t.shard]->covered_by(t.token)) return false;
  }
  return true;
}

void ShardGroup::rescan_parked() {
  // A read continuation delivered below may synchronously issue further
  // ShardGroup operations; the guard turns such nested re-scans into no-ops
  // while the outer loop runs to its fixpoint.
  if (rescanning_ || parked_total_ == 0) return;
  rescanning_ = true;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = parked_.begin(); it != parked_.end();) {
      std::deque<ShardEnvelope>& q = it->second;
      while (!q.empty() && head_ready(q.front())) {
        ShardEnvelope env = std::move(q.front());
        q.pop_front();
        --parked_total_;
        progress = true;
        inner_[env.shard]->on_message(env.inner);
      }
      if (q.empty()) {
        it = parked_.erase(it);
      } else {
        ++it;
      }
    }
  }
  rescanning_ = false;
}

WriteId ShardGroup::last_write_id() const {
  return inner_[has_local_write_ ? last_write_shard_ : 0]->last_write_id();
}

const Value& ShardGroup::peek(VarId x) const {
  return inner_[map_.shard_of(x)]->peek(x);
}

std::vector<std::uint8_t> ShardGroup::coverage_token(SiteId target) {
  std::vector<std::vector<std::uint8_t>> per;
  per.reserve(map_.shards());
  for (auto& p : inner_) per.push_back(p->coverage_token(target));
  return combine_shard_tokens(per);
}

bool ShardGroup::covered_by(const std::vector<std::uint8_t>& token) {
  const auto split = split_shard_tokens(token, map_.shards());
  if (!split) return false;
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    if (!inner_[k]->covered_by((*split)[k])) return false;
  }
  return true;
}

void ShardGroup::serialize_state(net::Encoder& enc) const {
  enc.varint(map_.shards());
  for (const auto& p : inner_) {
    net::Encoder sub;
    p->serialize_state(sub);
    enc.bytes(std::string_view(
        reinterpret_cast<const char*>(sub.buffer().data()),
        sub.buffer().size()));
  }
  enc.varint(parked_total_);
  for (const auto& [key, q] : parked_) {
    for (const ShardEnvelope& env : q) {
      const net::Message m =
          wrap_shard_envelope(env.shard, env.tokens, env.inner);
      enc.varint(m.src);
      enc.varint(m.dst);
      enc.varint(m.payload_bytes);
      enc.varint(m.chan_epoch);
      enc.varint(m.chan_seq);
      enc.bytes(std::string_view(reinterpret_cast<const char*>(m.body.data()),
                                 m.body.size()));
    }
  }
}

bool ShardGroup::restore_state(net::Decoder& dec) {
  if (dec.varint() != map_.shards() || !dec.ok()) return false;
  for (auto& p : inner_) {
    const std::string s = dec.bytes();
    if (!dec.ok()) return false;
    net::Decoder sub(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size());
    if (!p->restore_state(sub)) return false;
  }
  const std::uint64_t nparked = dec.varint();
  if (!dec.ok()) return false;
  for (std::uint64_t i = 0; i < nparked; ++i) {
    net::Message m;
    m.kind = net::MsgKind::kShardEnvelope;
    m.src = static_cast<SiteId>(dec.varint());
    m.dst = static_cast<SiteId>(dec.varint());
    m.payload_bytes = static_cast<std::uint32_t>(dec.varint());
    m.chan_epoch = dec.varint();
    m.chan_seq = dec.varint();
    const std::string body = dec.bytes();
    if (!dec.ok()) return false;
    m.body.assign(body.begin(), body.end());
    std::optional<ShardEnvelope> env = unwrap_shard_envelope(m);
    if (!env || env->shard >= map_.shards()) return false;
    parked_[{m.src, env->shard}].push_back(std::move(*env));
    ++parked_total_;
  }
  rescan_parked();
  return true;
}

void ShardGroup::replay_meta_merge(VarId x, SiteId responder,
                                   const std::uint8_t* data, std::size_t len) {
  inner_[map_.shard_of(x)]->replay_meta_merge(x, responder, data, len);
}

void ShardGroup::merge_all_local_meta() {
  for (auto& p : inner_) p->merge_all_local_meta();
}

void ShardGroup::on_durable_checkpoint(std::uint64_t gen) {
  for (auto& p : inner_) p->on_durable_checkpoint(gen);
}

store::EngineStats ShardGroup::store_stats() const {
  store::EngineStats sum = inner_[0]->store_stats();
  for (std::size_t k = 1; k < inner_.size(); ++k) {
    sum.accumulate(inner_[k]->store_stats());
  }
  return sum;
}

std::size_t ShardGroup::pending_update_count() const {
  std::size_t n = parked_total_;
  for (const auto& p : inner_) n += p->pending_update_count();
  return n;
}

std::uint64_t ShardGroup::log_entry_count() const {
  std::uint64_t n = 0;
  for (const auto& p : inner_) n += p->log_entry_count();
  return n;
}

std::uint64_t ShardGroup::meta_state_bytes() const {
  std::uint64_t n = 0;
  for (const auto& p : inner_) n += p->meta_state_bytes();
  return n;
}

Algorithm ShardGroup::algorithm() const { return inner_[0]->algorithm(); }

}  // namespace ccpr::causal
