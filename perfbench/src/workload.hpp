// Workload table, seeded op streams and the self-checking value format.
//
// Everything the benchmark sends is derived from (workload, seed): the
// program under test only ever sees the generated requests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kSites = 3;
inline constexpr std::uint32_t kReplicas = 2;
inline constexpr std::size_t kValueBytes = 64;
/// Writer id stamped into preloaded values (client writers are 0..2).
inline constexpr std::uint32_t kPreloadWriter = 0xff;

struct WorkloadSpec {
  std::string name;
  double get_fraction = 0;
  double zipf_theta = 0;  ///< 0 = uniform keys
  std::uint32_t keys = 0;
  std::uint32_t shards = 1;
  /// A data dir (WAL, wal-sync=batch) on every site. Batch, not always: on
  /// the 4-vCPU VM the benchmark was tuned on, fsync's p99 was 4-8 ms, so an
  /// fsync per put would measure the virtual disk's neighbours.
  bool durable = false;
  /// Fixed offered rate (ops/s) at which latencies are reported: 2-6% of
  /// the peak rate on the 4-vCPU VM the benchmark was tuned on, so that a
  /// host running several times slower is still far from saturation.
  double rate_ops_s = 0;
};

/// One of the three workloads by name; nullopt for an unknown name.
std::optional<WorkloadSpec> find_workload(std::string_view name);

struct Op {
  std::uint64_t due_ns = 0;  ///< intended send time, from the phase start
  std::uint32_t key = 0;
  std::uint8_t site = 0;  ///< site whose client port serves the op
  bool put = false;
};

/// Open-loop Poisson arrivals at `rate_ops_s` for `seconds`, keys and the
/// get/put mix drawn from the spec. Same arguments, same stream.
std::vector<Op> make_ops(const WorkloadSpec& spec, std::uint64_t seed,
                         double rate_ops_s, double seconds);

/// FNV-1a over every field of the stream, so two runs can be shown to have
/// fed the program identical inputs.
std::uint64_t hash_ops(const std::vector<Op>& ops, std::uint64_t h);

/// The replica sites of `key` under ring placement (x, x+1 mod n).
inline bool replicated_at(std::uint32_t key, std::uint32_t site) {
  const std::uint32_t first = key % kSites;
  return site == first || site == (first + 1) % kSites;
}

/// A 64-byte value naming its key, writer and write counter, padded with
/// bytes derived from the counter so that a torn or altered value cannot
/// decode as a valid one.
std::string encode_value(std::uint32_t key, std::uint32_t writer,
                         std::uint64_t counter);

struct DecodedValue {
  std::uint32_t key = 0;
  std::uint32_t writer = 0;
  std::uint64_t counter = 0;
};
std::optional<DecodedValue> decode_value(std::string_view data);

}  // namespace perfbench
