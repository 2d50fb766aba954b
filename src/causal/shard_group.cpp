#include "causal/shard_group.hpp"

#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace ccpr::causal {

ShardGroup::ShardGroup(std::uint32_t shards, std::uint32_t sites,
                       Services svc, const ProtocolBuilder& builder)
    : map_(shards), admission_(shards, sites), outer_(std::move(svc)) {
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
  const std::vector<ShardToken> tokens = admission_.tokens_for(
      from_shard, m, [this](std::uint32_t j, SiteId dst) {
        return inner_[j]->coverage_token(dst);
      });
  outer_.send(admission_.wrap(from_shard, tokens, std::move(m)));
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
  if (admission_.passthrough()) {
    inner_[0]->on_message(msg);
    return;
  }
  std::optional<ShardEnvelope> env = admission_.unwrap(msg);
  if (!env) {
    admission_.count_malformed();
    return;
  }
  admission_.push(msg.src, std::move(*env));
  rescan_parked();
}

void ShardGroup::rescan_parked() {
  // A read continuation delivered below may synchronously issue further
  // ShardGroup operations; the guard turns such nested re-scans into no-ops
  // while the outer loop runs to its fixpoint.
  if (rescanning_ || admission_.parked() == 0) return;
  rescanning_ = true;
  auto covered = [this](const ShardEnvelope& env) {
    for (const ShardToken& t : env.tokens) {
      if (!inner_[t.shard]->covered_by(t.token)) return false;
    }
    return true;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t c = 0; c < admission_.channel_count(); ++c) {
      while (const ShardEnvelope* h = admission_.head(c)) {
        if (!covered(*h)) break;
        ShardEnvelope env = admission_.pop(c);
        progress = true;
        inner_[env.shard]->on_message(env.inner);
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

store::EngineStats ShardGroup::store_stats() const {
  store::EngineStats sum = inner_[0]->store_stats();
  for (std::size_t k = 1; k < inner_.size(); ++k) {
    sum.accumulate(inner_[k]->store_stats());
  }
  return sum;
}

std::size_t ShardGroup::pending_update_count() const {
  std::size_t n = admission_.parked();
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
