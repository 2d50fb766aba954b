#include "causal/factory.hpp"

#include <string>

#include "causal/ahamad.hpp"
#include "causal/eventual.hpp"
#include "causal/protocol_base.hpp"
#include "causal/shard_group.hpp"
#include "causal/full_track.hpp"
#include "causal/opt_track.hpp"
#include "causal/opt_track_crp.hpp"
#include "causal/optp.hpp"
#include "util/assert.hpp"

namespace ccpr::causal {

namespace {

std::unique_ptr<IProtocol> make_protocol_impl(Algorithm alg, SiteId self,
                                              const ReplicaMap& rmap,
                                              Services svc,
                                              const ProtocolOptions& opts) {
  switch (alg) {
    case Algorithm::kFullTrack:
      return std::make_unique<FullTrack>(
          self, rmap, std::move(svc),
          FullTrack::Options{.fetch_gating = opts.fetch_gating});
    case Algorithm::kOptTrack:
      return std::make_unique<OptTrack>(
          self, rmap, std::move(svc),
          OptTrack::Options{.fetch_gating = opts.fetch_gating,
                            .prune_cond1 = opts.prune_cond1,
                            .prune_cond2 = opts.prune_cond2,
                            .distribute_write = opts.distribute_write,
                            .aggressive_merge = opts.aggressive_merge});
    case Algorithm::kOptTrackCRP:
      return std::make_unique<OptTrackCRP>(self, rmap, std::move(svc));
    case Algorithm::kOptP:
      return std::make_unique<OptP>(self, rmap, std::move(svc));
    case Algorithm::kAhamad:
      return std::make_unique<Ahamad>(self, rmap, std::move(svc));
    case Algorithm::kEventual:
      return std::make_unique<Eventual>(self, rmap, std::move(svc));
  }
  CCPR_UNREACHABLE("unknown algorithm");
}

}  // namespace

const char* algorithm_token(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kFullTrack:
      return "full-track";
    case Algorithm::kOptTrack:
      return "opt-track";
    case Algorithm::kOptTrackCRP:
      return "opt-track-crp";
    case Algorithm::kOptP:
      return "optp";
    case Algorithm::kAhamad:
      return "ahamad";
    case Algorithm::kEventual:
      return "eventual";
  }
  CCPR_UNREACHABLE("unknown algorithm");
}

std::optional<Algorithm> algorithm_from_token(std::string_view token) {
  for (const Algorithm a :
       {Algorithm::kFullTrack, Algorithm::kOptTrack, Algorithm::kOptTrackCRP,
        Algorithm::kOptP, Algorithm::kAhamad, Algorithm::kEventual}) {
    if (token == algorithm_token(a)) return a;
  }
  return std::nullopt;
}

namespace {

std::unique_ptr<IProtocol> make_single(Algorithm alg, SiteId self,
                                       const ReplicaMap& rmap, Services svc,
                                       const ProtocolOptions& opts) {
  auto protocol = make_protocol_impl(alg, self, rmap, std::move(svc), opts);
  if (opts.convergent || opts.fetch_timeout_us > 0 ||
      opts.store_engine.kind != store::EngineKind::kMap ||
      opts.write_seq_stride > 1) {
    auto* base = dynamic_cast<ProtocolBase*>(protocol.get());
    CCPR_ASSERT(base != nullptr);
    base->set_convergent(opts.convergent);
    base->set_fetch_timeout(opts.fetch_timeout_us);
    if (opts.store_engine.kind != store::EngineKind::kMap) {
      base->configure_store_engine(opts.store_engine);
    }
    if (opts.write_seq_stride > 1) {
      base->set_write_id_space(opts.write_seq_offset, opts.write_seq_stride);
    }
  }
  return protocol;
}

}  // namespace

ProtocolOptions shard_protocol_options(ProtocolOptions opts, std::uint32_t k,
                                       std::uint32_t n) {
  opts.engine_shards = 1;
  // Disjoint WriteId seq spaces: without this, two shards of one site would
  // both issue (self, 1), (self, 2), ... and WriteIds — the checker's
  // globally unique write identities — would collide.
  opts.write_seq_offset = k;
  opts.write_seq_stride = n;
  if (!opts.store_engine.spill_dir.empty() && k > 0) {
    opts.store_engine.spill_dir += "/shard-" + std::to_string(k);
  }
  return opts;
}

std::unique_ptr<IProtocol> make_protocol(Algorithm alg, SiteId self,
                                         const ReplicaMap& rmap, Services svc,
                                         const ProtocolOptions& opts) {
  if (opts.engine_shards <= 1) {
    return make_single(alg, self, rmap, std::move(svc), opts);
  }
  // Sharded site: a ShardGroup of single-shard instances. Each inner gets
  // the full ReplicaMap (causal metadata is per-site, so partitioning the
  // keyspace never changes who tracks whom).
  return std::make_unique<ShardGroup>(
      opts.engine_shards, rmap.sites(), std::move(svc),
      [alg, self, &rmap, &opts](std::uint32_t k, Services sk) {
        return make_single(alg, self, rmap, std::move(sk),
                           shard_protocol_options(opts, k, opts.engine_shards));
      });
}

}  // namespace ccpr::causal
