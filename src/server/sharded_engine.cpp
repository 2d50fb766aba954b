#include "server/sharded_engine.hpp"

#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace ccpr::server {

ShardedEngine::ShardedEngine(std::uint32_t shards, causal::SiteId self,
                             std::uint32_t n_sites,
                             ProtocolEngine::Options engine_opts)
    : map_(shards),
      self_(self),
      n_sites_(n_sites),
      admission_(shards, n_sites) {
  engines_.reserve(map_.shards());
  metrics_.reserve(map_.shards());
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_.push_back(std::make_unique<ProtocolEngine>(engine_opts));
    metrics_.push_back(std::make_unique<metrics::Metrics>());
  }
  token_cache_.assign(map_.shards(),
                      std::vector<std::vector<std::uint8_t>>(n_sites_));
  armed_.assign(admission_.channel_count(), false);
}

ShardedEngine::~ShardedEngine() { stop_all(); }

void ShardedEngine::set_transport_send(
    std::function<void(net::Message)> send) {
  transport_send_ = std::move(send);
}

net::Message ShardedEngine::wrap(std::uint32_t shard, net::Message msg) {
  std::vector<causal::ShardToken> tokens;
  {
    // One token_mu_ acquisition, and only for kinds that carry tokens.
    std::unique_lock lk(token_mu_, std::defer_lock);
    tokens = admission_.tokens_for(
        shard, msg, [&](std::uint32_t j, causal::SiteId dst) {
          if (!lk.owns_lock()) lk.lock();
          return token_cache_[j][dst];
        });
  }
  return admission_.wrap(shard, tokens, std::move(msg));
}

void ShardedEngine::wrap_and_send(std::uint32_t shard, net::Message msg) {
  CCPR_EXPECTS(transport_send_ != nullptr);
  // Already an envelope: a catch-up re-send of a retained wrapped update
  // (Durability wraps stamped updates before retention, so re-sends keep
  // their original-send tokens). Forward verbatim — re-wrapping would nest
  // envelopes, and fresh tokens could deadlock the receiver.
  if (msg.kind == net::MsgKind::kShardEnvelope) {
    transport_send_(std::move(msg));
    return;
  }
  transport_send_(wrap(shard, std::move(msg)));
}

void ShardedEngine::publish_tokens(std::uint32_t shard,
                                   causal::IProtocol& proto) {
  if (map_.shards() == 1) return;
  std::lock_guard lk(token_mu_);
  for (std::uint32_t dst = 0; dst < n_sites_; ++dst) {
    if (dst == self_) continue;
    token_cache_[shard][dst] = proto.coverage_token(dst);
  }
}

void ShardedEngine::install_hooks() {
  if (map_.shards() == 1) return;
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_[k]->set_batch_end_hook(
        [this, k](causal::IProtocol& p) { publish_tokens(k, p); });
  }
}

void ShardedEngine::start_all() {
  for (auto& e : engines_) e->start();
}

void ShardedEngine::stop_all() {
  for (auto& e : engines_) e->stop();
}

void ShardedEngine::deliver(net::Message msg) {
  if (admission_.passthrough()) {
    engines_[0]->apply_message(std::move(msg));
    return;
  }
  std::optional<causal::ShardEnvelope> env = admission_.unwrap(msg);
  std::size_t chan = 0;
  bool arm = false;
  {
    std::lock_guard lk(adm_mu_);
    if (!env) {
      admission_.count_malformed();
      return;
    }
    chan = admission_.push(msg.src, std::move(*env));
    arm = !armed_[chan];
    armed_[chan] = true;
  }
  if (arm) arm_or_drain(chan, /*bounded=*/true);
}

void ShardedEngine::arm_or_drain(std::size_t chan, bool bounded) {
  for (;;) {
    std::vector<causal::ShardToken> tokens;
    std::optional<causal::ShardEnvelope> ready;
    {
      std::lock_guard lk(adm_mu_);
      const causal::ShardEnvelope* head = admission_.head(chan);
      if (head == nullptr) {
        armed_[chan] = false;
        return;
      }
      if (head->tokens.empty()) {
        ready = admission_.pop(chan);
      } else {
        tokens = head->tokens;
      }
    }
    if (ready) {
      // Head carries no checkable dependencies (requests, or trivially
      // covered): release it here and look at the next head.
      engines_[ready->shard]->apply_message(std::move(ready->inner), bounded);
      continue;
    }
    auto gate = std::make_shared<Gate>();
    gate->remaining.store(static_cast<std::uint32_t>(tokens.size()),
                          std::memory_order_relaxed);
    gate->chan = chan;
    for (causal::ShardToken& t : tokens) {
      // Verdict value is irrelevant: covered -> proceed; nullopt (engine
      // stopping) -> proceed too, the release enqueue is then a no-op drop,
      // exactly what an unsharded stopping site does with late deliveries.
      engines_[t.shard]->post_covered_callback(
          std::move(t.token),
          [this, gate](std::optional<bool>) {
            if (gate->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
              on_gate_open(gate->chan);
            }
          },
          bounded);
    }
    return;
  }
}

void ShardedEngine::on_gate_open(std::size_t chan) {
  causal::ShardEnvelope env;
  {
    std::lock_guard lk(adm_mu_);
    env = admission_.pop(chan);
  }
  // Runs on whichever shard's apply thread reported the last verdict (or on
  // the poster's thread when an engine is stopping): everything below must
  // stay non-blocking, hence unbounded enqueues.
  engines_[env.shard]->apply_message(std::move(env.inner), /*bounded=*/false);
  arm_or_drain(chan, /*bounded=*/false);
}

// ---- client-facing async API ----

void ShardedEngine::async_write(causal::VarId x, std::string data,
                                bool local_replica,
                                ProtocolEngine::WriteCb cb) {
  engines_[map_.shard_of(x)]->async_write(x, std::move(data), local_replica,
                                          std::move(cb));
}

void ShardedEngine::async_read(causal::VarId x, ProtocolEngine::ReadCb cb) {
  engines_[map_.shard_of(x)]->async_read(x, std::move(cb));
}

namespace {

struct SnapState {
  std::vector<causal::Value> out;
  // groups[g] = (shard, indices into the request in shard-local order)
  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> groups;
  std::vector<std::vector<causal::VarId>> group_vars;
  std::size_t gi = 0;
  ProtocolEngine::SnapshotCb cb;
};

}  // namespace

void ShardedEngine::async_snapshot(std::vector<causal::VarId> xs,
                                   ProtocolEngine::SnapshotCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_snapshot(std::move(xs), std::move(cb));
    return;
  }
  auto st = std::make_shared<SnapState>();
  st->out.resize(xs.size());
  st->cb = std::move(cb);
  std::vector<std::int64_t> group_of(map_.shards(), -1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t k = map_.shard_of(xs[i]);
    if (group_of[k] < 0) {
      group_of[k] = static_cast<std::int64_t>(st->groups.size());
      st->groups.emplace_back(k, std::vector<std::size_t>{});
      st->group_vars.emplace_back();
    }
    st->groups[static_cast<std::size_t>(group_of[k])].second.push_back(i);
    st->group_vars[static_cast<std::size_t>(group_of[k])].push_back(xs[i]);
  }
  // Sequential per-shard cuts: each sub-snapshot is issued only after the
  // previous one completed, so the values form a causally consistent read
  // sequence (weaker than the single-shard atomic cut; see RUNTIMES.md).
  struct Runner {
    static void step(ShardedEngine* eng, std::shared_ptr<SnapState> s) {
      const auto g = s->gi;
      eng->engines_[s->groups[g].first]->async_snapshot(
          s->group_vars[g],
          [eng, s](std::optional<std::vector<causal::Value>> vals) {
            if (!vals) {
              s->cb(std::nullopt);
              return;
            }
            const auto& idxs = s->groups[s->gi].second;
            for (std::size_t j = 0; j < idxs.size(); ++j) {
              s->out[idxs[j]] = std::move((*vals)[j]);
            }
            if (++s->gi == s->groups.size()) {
              s->cb(std::move(s->out));
            } else {
              step(eng, s);
            }
          });
    }
  };
  if (st->groups.empty()) {
    st->cb(std::vector<causal::Value>{});
    return;
  }
  Runner::step(this, st);
}

namespace {

struct TokenChain {
  std::vector<std::vector<std::uint8_t>> per_shard;
  ProtocolEngine::TokenCb cb;
};

}  // namespace

void ShardedEngine::async_token(causal::SiteId target,
                                ProtocolEngine::TokenCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_token(target, std::move(cb));
    return;
  }
  auto st = std::make_shared<TokenChain>();
  st->cb = std::move(cb);
  struct Runner {
    static void step(ShardedEngine* eng, causal::SiteId target,
                     std::shared_ptr<TokenChain> s) {
      const std::uint32_t k = static_cast<std::uint32_t>(s->per_shard.size());
      eng->engines_[k]->async_token(
          target,
          [eng, target, s](std::optional<std::vector<std::uint8_t>> tok) {
            if (!tok) {
              s->cb(std::nullopt);
              return;
            }
            s->per_shard.push_back(std::move(*tok));
            if (s->per_shard.size() == eng->map_.shards()) {
              s->cb(causal::combine_shard_tokens(s->per_shard));
            } else {
              step(eng, target, s);
            }
          });
    }
  };
  Runner::step(this, target, st);
}

void ShardedEngine::async_covered(std::vector<std::uint8_t> token,
                                  std::uint64_t wait_us,
                                  ProtocolEngine::CoveredCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_covered(std::move(token), wait_us, std::move(cb));
    return;
  }
  const auto split = causal::split_shard_tokens(token, map_.shards());
  if (!split) {
    cb(false);  // undecodable session token: same verdict as today
    return;
  }
  struct CovState {
    std::atomic<std::uint32_t> remaining{0};
    std::atomic<bool> ok{true};
    std::atomic<bool> aborted{false};
    ProtocolEngine::CoveredCb cb;
  };
  auto st = std::make_shared<CovState>();
  st->remaining.store(map_.shards(), std::memory_order_relaxed);
  st->cb = std::move(cb);
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_[k]->async_covered(
        (*split)[k], wait_us, [st](std::optional<bool> v) {
          if (!v) {
            st->aborted.store(true, std::memory_order_relaxed);
          } else if (!*v) {
            st->ok.store(false, std::memory_order_relaxed);
          }
          if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            if (st->aborted.load(std::memory_order_relaxed)) {
              st->cb(std::nullopt);
            } else {
              st->cb(st->ok.load(std::memory_order_relaxed));
            }
          }
        });
  }
}

void ShardedEngine::async_report(ReportCb cb) {
  struct Fan {
    std::atomic<std::uint32_t> remaining{0};
    std::vector<std::optional<ProtocolEngine::Report>> shards;
    ReportCb cb;
  };
  auto st = std::make_shared<Fan>();
  st->remaining.store(map_.shards(), std::memory_order_relaxed);
  st->shards.resize(map_.shards());
  st->cb = std::move(cb);
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_[k]->async_report(
        [this, st, k](std::optional<ProtocolEngine::Report> r) {
          st->shards[k] = std::move(r);
          if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
            return;
          }
          Report out;
          out.shards.reserve(st->shards.size());
          for (auto& s : st->shards) {
            if (!s) {
              st->cb(std::nullopt);
              return;
            }
            if (out.shards.empty()) {
              out.site = *s;
            } else {
              out.site.merge(*s);
            }
            out.shards.push_back(std::move(*s));
          }
          out.site.pending_updates += parked_envelopes();
          st->cb(std::move(out));
        });
  }
}

std::uint64_t ShardedEngine::parked_envelopes() const {
  std::lock_guard lk(adm_mu_);
  return admission_.parked();
}

std::uint64_t ShardedEngine::malformed_envelopes() const {
  std::lock_guard lk(adm_mu_);
  return admission_.malformed();
}

std::vector<ProtocolEngine::QueueStats> ShardedEngine::queue_stats() const {
  std::vector<ProtocolEngine::QueueStats> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e->queue_stats());
  return out;
}

}  // namespace ccpr::server
