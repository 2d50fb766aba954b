#include "workload.hpp"

#include <cmath>
#include <cstdio>

#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

namespace {

const std::vector<WorkloadSpec>& all_workloads() {
  // Why each exists (README.md has the full table):
  //  read_mostly    RemoteFetch + fetch gating + read-time metadata merge,
  //                 the partial-replication tax; WAL and shards idle.
  //  write_sharded  shard envelopes, token publishing, update propagation
  //                 and remote activation; WAL idle.
  //  update_durable WAL append and checkpoint stalls, reads beside writes
  //                 on a hot keyspace; shards idle.
  // Key counts are far below the 100k/262k first planned: opt-track's per-op
  // metadata sampling walks every written key, so preload is O(q^2).
  static const std::vector<WorkloadSpec> specs = {
      {"read_mostly", 0.95, 0.99, 4'096, 1, false, 2'000},
      {"write_sharded", 0.20, 0.0, 2'048, 4, false, 1'000},
      {"update_durable", 0.50, 0.99, 4'096, 1, true, 1'500},
  };
  return specs;
}

}  // namespace

std::optional<WorkloadSpec> find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::vector<Op> make_ops(const WorkloadSpec& spec, std::uint64_t seed,
                         double rate_ops_s, double seconds) {
  ccpr::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::optional<ccpr::util::ZipfSampler> zipf;
  if (spec.zipf_theta > 0) zipf.emplace(spec.keys, spec.zipf_theta);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(rate_ops_s * seconds * 1.05) + 16);
  const double mean_gap_ns = 1e9 / rate_ops_s;
  const double end_ns = seconds * 1e9;
  double t = 0;
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= end_ns) break;
    Op op;
    op.due_ns = static_cast<std::uint64_t>(t);
    // Zipf ranks are scattered over the keyspace (1000003 is prime and
    // coprime with every key count used) so hot keys land on every site.
    const std::uint64_t rank =
        zipf ? zipf->sample(rng) : rng.below(spec.keys);
    op.key = static_cast<std::uint32_t>((rank * 1'000'003ULL) % spec.keys);
    op.site = static_cast<std::uint8_t>(rng.below(kSites));
    op.put = !rng.chance(spec.get_fraction);
    ops.push_back(op);
  }
  return ops;
}

std::uint64_t hash_ops(const std::vector<Op>& ops, std::uint64_t h) {
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Op& op : ops) {
    mix(op.due_ns);
    mix(op.key);
    mix(op.site);
    mix(op.put ? 1 : 0);
  }
  return h;
}

namespace {

char pad_byte(std::uint64_t counter, std::size_t i) {
  return static_cast<char>('a' + (counter * 7 + i) % 26);
}

bool parse_hex(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

// "pb" key:8 writer:2 counter:12, then padding.
constexpr std::size_t kHeaderBytes = 2 + 8 + 2 + 12;

}  // namespace

std::string encode_value(std::uint32_t key, std::uint32_t writer,
                         std::uint64_t counter) {
  char head[kHeaderBytes + 1];
  std::snprintf(head, sizeof head, "pb%08x%02x%012llx", key, writer & 0xff,
                static_cast<unsigned long long>(counter & 0xffffffffffffULL));
  std::string v(head, kHeaderBytes);
  v.reserve(kValueBytes);
  for (std::size_t i = kHeaderBytes; i < kValueBytes; ++i) {
    v.push_back(pad_byte(counter, i));
  }
  return v;
}

std::optional<DecodedValue> decode_value(std::string_view data) {
  if (data.size() != kValueBytes || data.substr(0, 2) != "pb") {
    return std::nullopt;
  }
  std::uint64_t key = 0;
  std::uint64_t writer = 0;
  std::uint64_t counter = 0;
  if (!parse_hex(data.substr(2, 8), &key) ||
      !parse_hex(data.substr(10, 2), &writer) ||
      !parse_hex(data.substr(12, 12), &counter)) {
    return std::nullopt;
  }
  for (std::size_t i = kHeaderBytes; i < kValueBytes; ++i) {
    if (data[i] != pad_byte(counter, i)) return std::nullopt;
  }
  return DecodedValue{static_cast<std::uint32_t>(key),
                      static_cast<std::uint32_t>(writer), counter};
}

}  // namespace perfbench
