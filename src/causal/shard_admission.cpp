#include "causal/shard_admission.hpp"

#include <vector>

#include "util/assert.hpp"

namespace ccpr::causal {

ShardAdmission::ShardAdmission(std::uint32_t shards, std::uint32_t sites)
    : shards_(shards ? shards : 1), sites_(sites) {
  if (!passthrough()) {
    chans_.resize(static_cast<std::size_t>(sites_) * shards_);
  }
}

bool ShardAdmission::carries_tokens(net::MsgKind kind) noexcept {
  return kind == net::MsgKind::kUpdate || kind == net::MsgKind::kFetchResp;
}

net::Message ShardAdmission::wrap(std::uint32_t from,
                                  const std::vector<ShardToken>& tokens,
                                  net::Message msg) const {
  if (passthrough()) return msg;
  return wrap_shard_envelope(from, tokens, msg);
}

std::optional<ShardEnvelope> ShardAdmission::unwrap(
    const net::Message& msg) const {
  // A sharded site only exchanges envelopes with peers (heartbeats are
  // answered before admission); anything else means a peer runs a
  // different shard count.
  if (msg.kind != net::MsgKind::kShardEnvelope || msg.src >= sites_) {
    return std::nullopt;
  }
  std::optional<ShardEnvelope> env = unwrap_shard_envelope(msg);
  if (!env || env->shard >= shards_) return std::nullopt;
  return env;
}

std::size_t ShardAdmission::push(SiteId src, ShardEnvelope env) {
  CCPR_EXPECTS(src < sites_ && env.shard < shards_);
  const std::uint32_t own = env.shard;
  std::erase_if(env.tokens, [&](const ShardToken& t) {
    return t.shard == own || t.shard >= shards_ || t.token.empty();
  });
  const std::size_t chan = static_cast<std::size_t>(src) * shards_ + own;
  chans_[chan].push_back(std::move(env));
  ++parked_;
  return chan;
}

ShardEnvelope ShardAdmission::pop(std::size_t chan) {
  auto& q = chans_[chan];
  CCPR_EXPECTS(!q.empty());
  ShardEnvelope env = std::move(q.front());
  q.pop_front();
  --parked_;
  return env;
}

}  // namespace ccpr::causal
