#pragma once

// Pluggable value-store engines for the protocol layer.
//
// Every causal protocol in this repo ultimately lands writes in a map
// VarId -> Value. For small experiments a std::unordered_map is fine, but
// the q-sweep regime the paper cares about (q up to 10^6 and beyond) makes
// the container itself the dominant memory cost: ~120-160 bytes/key for
// 16-byte values once node, bucket, and heap-string overheads are counted.
//
// ValueEngine abstracts that container so ProtocolBase can run on either:
//
//   * MapEngine     — the original unordered_map, kept as the reference
//                     oracle for differential tests.
//   * CompactEngine — sharded open-addressing index (12-byte slots) over
//                     arena-backed records that inline small values, keep
//                     large blobs out-of-line, and optionally spill cold
//                     values to a disk segment file.
//
// Threading contract: engines are NOT thread-safe. They inherit the
// protocol's single-caller discipline (see causal/protocol.hpp) — the sim
// loop or the TCP runtime's single apply thread serializes every call.
// `find()` may mutate internal state (scratch buffers, probe counters,
// clock bits) despite being a read, so even concurrent finds are illegal.
//
// Reference stability: the pointer returned by find() remains valid until
// the next call that mutates the engine (put/clear/restore/maintain) and
// at most until the next `kScratchSlots` finds. ProtocolBase borrows it
// only within one protocol entry and runs maintain() strictly at the
// outermost entry, so protocol re-entrancy (read continuations issuing
// writes) never invalidates a live borrow.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "causal/types.hpp"

namespace ccpr::store {

enum class EngineKind : std::uint8_t {
  kMap = 0,
  kCompact = 1,
};

const char* engine_kind_token(EngineKind k);
bool parse_engine_kind(const std::string& text, EngineKind* out);

struct EngineOptions {
  EngineKind kind = EngineKind::kMap;
  // CompactEngine tuning. Shard count is rounded up to a power of two.
  std::uint32_t shards = 8;
  // Values with data.size() <= inline_max live in the arena; larger blobs
  // are stored out-of-line on the heap (stable address, zero-copy reads).
  std::uint32_t inline_max = 256;
  // When > 0, maintain() spills cold values to `spill_dir` until resident
  // value bytes fit the budget. 0 disables spill entirely.
  std::uint64_t spill_budget_bytes = 0;
  // Directory for spill segment files. Required when spill_budget_bytes
  // is set and filled in by the server runtime from --data-dir; engines
  // own the directory and delete stale segments from prior incarnations.
  std::string spill_dir;
};

struct EngineStats {
  EngineKind kind = EngineKind::kMap;
  std::uint64_t keys = 0;
  // Bytes resident in RAM attributable to the engine: index + arena
  // blocks + out-of-line blobs + container overhead estimates.
  std::uint64_t resident_bytes = 0;
  std::uint64_t index_slots = 0;
  // Lifetime probe statistics for the open-addressing index (MapEngine
  // reports lookups with 1 probe each so dashboards stay comparable).
  std::uint64_t lookups = 0;
  std::uint64_t probes = 0;
  std::uint64_t spilled_keys = 0;
  std::uint64_t spill_segment_bytes = 0;
  std::uint64_t spill_reads = 0;
  std::uint64_t spill_writes = 0;
  std::uint64_t compactions = 0;

  double mean_probe_length() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(probes) /
                              static_cast<double>(lookups);
  }

  /// Add another engine's counters (the shards of one site). `kind` stays:
  /// every shard of a site runs the same engine.
  void accumulate(const EngineStats& o) noexcept {
    keys += o.keys;
    resident_bytes += o.resident_bytes;
    index_slots += o.index_slots;
    lookups += o.lookups;
    probes += o.probes;
    spilled_keys += o.spilled_keys;
    spill_segment_bytes += o.spill_segment_bytes;
    spill_reads += o.spill_reads;
    spill_writes += o.spill_writes;
    compactions += o.compactions;
  }
};

class ValueEngine {
 public:
  virtual ~ValueEngine() = default;

  // Insert or overwrite. No LWW filtering here — convergence policy stays
  // in the protocol layer; the engine is a dumb container.
  virtual void put(causal::VarId x, causal::Value v) = 0;

  // Borrow the stored value, or nullptr when absent. See the reference
  // stability contract above. Non-const: may touch scratch/clock state.
  virtual const causal::Value* find(causal::VarId x) = 0;

  virtual std::uint64_t size() const = 0;

  // Visit every key once, in unspecified order. The Value& argument is
  // only valid for the duration of the callback.
  virtual void for_each(
      const std::function<void(causal::VarId, const causal::Value&)>& fn) = 0;

  // Drop everything (checkpoint restore starts from an empty store).
  virtual void clear() = 0;

  // Housekeeping hook: compaction, index growth hygiene, cold-value
  // spill. Called by ProtocolBase at outermost protocol entries only, so
  // no find() borrow can be live. Must be cheap when there is nothing to
  // do.
  virtual void maintain() = 0;

  // The durability layer completed a WAL checkpoint for generation `gen`.
  // Engines use this to rotate/compact spill segments so on-disk state
  // tracks checkpoint generations; a no-op for purely resident engines.
  virtual void on_checkpoint(std::uint64_t gen) = 0;

  virtual EngineStats stats() const = 0;
  virtual EngineKind kind() const = 0;
};

std::unique_ptr<ValueEngine> make_engine(const EngineOptions& opts);

}  // namespace ccpr::store
