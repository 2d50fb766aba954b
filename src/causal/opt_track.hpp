// Algorithm Opt-Track (paper Algorithms 2 + 3).
//
// Message- and space-optimal causal memory under partial replication: the
// per-site log holds <sender, clock, Dests> records whose destination lists
// are pruned under the two Kshemkalyani–Singhal conditions:
//   Condition 1 — once an update is applied at s, "s is a destination" need
//     not be remembered in the causal future of that apply;
//   Condition 2 — a causally later write to the same destination subsumes
//     the earlier one's destination entry.
// Both conditions are independently switchable for the pruning ablation.
//
// Deviations from the paper's pseudo-code (see DESIGN.md §6): the two
// branches of WRITE lines 5–6 are swapped in the paper's text (the copy sent
// to s_j must *preserve* s_j in o.Dests, or the receiver's activation
// predicate has nothing to check), and line 16's `Apply_i[i]++` must be the
// assignment `Apply_i[i] := clock_i` because clock_i advances on every write
// while Apply only advances on locally replicated ones.
#pragma once

#include <unordered_map>

#include "causal/opt_log.hpp"
#include "causal/protocol_base.hpp"

namespace ccpr::causal {

class OptTrack final : public ProtocolBase {
 public:
  struct Options {
    bool fetch_gating = true;
    /// KS Condition 1 (prune own site id at apply).
    bool prune_cond1 = true;
    /// KS Condition 2 (prune replica set at write).
    bool prune_cond2 = true;
    /// §III-B optimization: ship one unpruned log to all destinations and
    /// let each receiver subtract x.replicas, trading O(n^2) write time for
    /// slightly larger messages.
    bool distribute_write = false;
    /// Use the paper's Algorithm 3 MERGE verbatim (deletes any record older
    /// than a same-sender record in the other log). UNSOUND — kept only to
    /// reproduce the defect; see MergePolicy::kPaperAggressive.
    bool aggressive_merge = false;
    /// Piggyback the sender's Apply vector on updates and fetch responses
    /// (O(n) varints) and maintain a known-apply matrix; log records
    /// discharge destinations using these *facts*, which is what keeps the
    /// sound (conservative) MERGE as compact as the paper's unsound rule.
    /// Disabled automatically in aggressive (paper-faithful) mode.
    bool apply_gossip = true;
  };

  OptTrack(SiteId self, const ReplicaMap& rmap, Services svc);
  OptTrack(SiteId self, const ReplicaMap& rmap, Services svc,
           Options options);

  void do_write(VarId x, std::string data) override;

  std::size_t pending_update_count() const override { return pending_.size(); }
  std::uint64_t log_entry_count() const override { return log_.size(); }
  std::uint64_t meta_state_bytes() const override;
  Algorithm algorithm() const override { return Algorithm::kOptTrack; }

  /// Test hooks.
  const Log& log() const noexcept { return log_; }
  const std::unordered_map<VarId, Log>& last_write_on() const noexcept {
    return last_write_on_;
  }
  std::uint64_t applied_clock(SiteId j) const { return apply_[j]; }
  std::uint64_t clock() const noexcept { return clock_; }

 protected:
  void on_update(const net::Message& msg) override;
  void merge_on_local_read(VarId x) override;
  void encode_fetch_req_meta(net::Encoder& enc, VarId x,
                             SiteId target) override;
  bool fetch_ready(VarId x, net::Decoder& meta) override;
  void encode_fetch_resp_meta(net::Encoder& enc, VarId x) override;
  void merge_fetch_resp_meta(VarId x, SiteId responder,
                             net::Decoder& dec) override;
  bool locally_covered() const override;
  void serialize_meta(net::Encoder& enc) const override;
  bool restore_meta(net::Decoder& dec) override;
  void seal_local_meta() override;

 private:
  struct Update {
    VarId x;
    Value v;
    SiteId sender;
    std::uint64_t clock;
    DestSet replicas;
    Log log;
    sim::SimTime receipt;
  };

  bool ready(const Update& u) const;
  void apply(Update&& u);
  MergePolicy merge_policy() const;
  bool gossip_enabled() const {
    return options_.apply_gossip && !options_.aggressive_merge;
  }
  /// Remove from every record each destination d for which the known-apply
  /// matrix proves d already applied the record's write.
  void discharge_log(Log& log) const;
  void absorb_apply_vector(SiteId from, net::Decoder& dec);
  void encode_apply_vector(net::Encoder& enc) const;
  void sample_space();
  /// LastWriteOn[x] := lw, keeping last_write_bytes_ in step. Forwards so
  /// the copy in do_write reuses the old record's storage.
  template <typename L>
  void set_last_write_on(VarId x, L&& lw);

  Options options_;
  std::uint64_t clock_ = 0;
  std::vector<std::uint64_t> apply_;
  /// known_apply_[d * n + z]: proven lower bound on Apply_d[z], learned from
  /// gossiped Apply vectors (row self_ mirrors apply_).
  std::vector<std::uint64_t> known_apply_;
  Log log_;
  std::unordered_map<VarId, Log> last_write_on_;
  /// Running sum over last_write_on_ of sizeof(VarId) + log_byte_size(lw),
  /// so meta_state_bytes() costs O(|log_|) instead of a walk of every key.
  std::uint64_t last_write_bytes_ = 0;
  PendingBuffer<Update> pending_;
};

}  // namespace ccpr::causal
