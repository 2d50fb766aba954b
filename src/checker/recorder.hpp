// Records the global history H (per-process operation sequences) and the
// per-site apply sequences while a cluster runs. The offline CausalChecker
// consumes this to machine-verify causal-memory semantics after every test
// run. Thread-safe so concurrent client sessions can record too.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "causal/types.hpp"

namespace ccpr::checker {

/// One operation in a process's local history h_i.
struct OpRecord {
  enum class Kind : std::uint8_t {
    kWrite,
    kRead,
    /// A write whose fate is unknown to the issuing client: the request
    /// may have executed server-side but the response was lost (timeout,
    /// crash mid-call) and the retry's outcome does not disambiguate.
    /// Recorded so the checker can tolerate — rather than flag — reads
    /// that return a write id no confirmed write produced. `write` is
    /// empty; only `var` is meaningful.
    kWriteMaybe,
  };
  Kind kind;
  causal::SiteId process;   ///< ap_i that performed the op
  causal::VarId var;
  /// For writes: this write's identity. For reads: the identity of the write
  /// whose value was returned (seq 0 = initial value).
  causal::WriteId write;
};

/// One apply event at a site.
struct ApplyRecord {
  causal::SiteId site;
  causal::VarId var;
  causal::WriteId write;
};

class HistoryRecorder {
 public:
  void on_write(causal::SiteId process, causal::WriteId id, causal::VarId x) {
    std::lock_guard lk(mu_);
    ops_.push_back({OpRecord::Kind::kWrite, process, x, id});
  }

  void on_read(causal::SiteId process, causal::VarId x, causal::WriteId from) {
    std::lock_guard lk(mu_);
    ops_.push_back({OpRecord::Kind::kRead, process, x, from});
  }

  /// A put whose execution is indeterminate (see OpRecord::Kind::kWriteMaybe).
  void on_write_maybe(causal::SiteId process, causal::VarId x) {
    std::lock_guard lk(mu_);
    ops_.push_back({OpRecord::Kind::kWriteMaybe, process, x, {}});
  }

  void on_apply(causal::SiteId site, causal::WriteId id, causal::VarId x) {
    std::lock_guard lk(mu_);
    applies_.push_back({site, x, id});
  }

  /// Global op log in recording order. Per-process subsequences are the
  /// local histories h_i (recording order == program order per process
  /// because each application process is sequential).
  std::vector<OpRecord> ops() const {
    std::lock_guard lk(mu_);
    return ops_;
  }

  std::vector<ApplyRecord> applies() const {
    std::lock_guard lk(mu_);
    return applies_;
  }

  void clear() {
    std::lock_guard lk(mu_);
    ops_.clear();
    applies_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<OpRecord> ops_;
  std::vector<ApplyRecord> applies_;
};

}  // namespace ccpr::checker
