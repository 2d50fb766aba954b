// Experiment E4 — Table I, row "Time complexity" (google-benchmark):
//   write: Full-Track O(n^2), Opt-Track O(n^2 p) (O(n^2) distributed mode),
//          Opt-Track-CRP O(n), OptP O(n)
//   read:  Full-Track/Opt-Track O(n^2), Opt-Track-CRP O(1)*, OptP O(n)
// Measures the CPU cost of one protocol write / local read (including
// serialization) as n grows. The scheduler is drained outside the timed
// region so only the operation's own processing is measured.
// A second axis holds Opt-Track at n = 4 and grows the keyspace q: Table I
// has no term in q, so per-op time there should follow |LOG|, not q.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "causal/sim_cluster.hpp"
#include "sim/latency.hpp"

using namespace ccpr;
using causal::Algorithm;

namespace {

std::unique_ptr<causal::SimCluster> make_cluster(Algorithm alg,
                                                 std::uint32_t n,
                                                 std::uint32_t q,
                                                 std::uint32_t p) {
  causal::SimCluster::Options opts;
  opts.latency = std::make_unique<sim::ConstantLatency>(10);
  opts.record_history = false;
  return std::make_unique<causal::SimCluster>(
      alg, causal::ReplicaMap::even(n, q, p), std::move(opts));
}

std::uint32_t pick_p(Algorithm alg, std::uint32_t n) {
  return (alg == Algorithm::kFullTrack || alg == Algorithm::kOptTrack)
             ? std::min(3u, n)
             : n;
}

/// Every site writes its local vars once, everything delivered.
void prefill(causal::SimCluster& cluster) {
  for (causal::SiteId s = 0; s < cluster.replica_map().sites(); ++s) {
    for (const auto v : cluster.replica_map().vars_at(s)) {
      cluster.site(s).write(v, "prefill");
    }
  }
  cluster.run();
}

void time_writes(benchmark::State& state, causal::SimCluster& cluster,
                 std::uint32_t q) {
  std::uint32_t x = 0;
  int since_drain = 0;
  for (auto _ : state) {
    cluster.site(0).write(x, "payload-12345678");
    x = (x + 1) % q;
    if (++since_drain == 256) {
      state.PauseTiming();
      cluster.run();  // deliver queued updates outside the timed region
      state.ResumeTiming();
      since_drain = 0;
    }
  }
}

void time_local_reads(benchmark::State& state, causal::SimCluster& cluster) {
  const auto local = cluster.replica_map().vars_at(0);
  std::size_t i = 0;
  for (auto _ : state) {
    cluster.site(0).read(local[i % local.size()],
                         [](const causal::Value&) {});
    ++i;
  }
}

void BM_Write(benchmark::State& state, Algorithm alg) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto cluster = make_cluster(alg, n, 4 * n, pick_p(alg, n));
  time_writes(state, *cluster, 4 * n);
  state.SetLabel(causal::algorithm_name(alg));
}

void BM_LocalRead(benchmark::State& state, Algorithm alg) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  auto cluster = make_cluster(alg, n, 4 * n, pick_p(alg, n));
  prefill(*cluster);
  time_local_reads(state, *cluster);
  state.SetLabel(causal::algorithm_name(alg));
}

// q axis: Opt-Track at n = 4 with q = state.range(0), prefilled so every
// local var carries a LastWriteOn record before timing starts. The
// log_entries counter is site 0's |LOG| after the timed loop.
constexpr std::uint32_t kQAxisSites = 4;

void BM_WriteQ(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  auto cluster = make_cluster(Algorithm::kOptTrack, kQAxisSites, q,
                              pick_p(Algorithm::kOptTrack, kQAxisSites));
  prefill(*cluster);
  time_writes(state, *cluster, q);
  state.counters["log_entries"] =
      static_cast<double>(cluster->site(0).log_entry_count());
  state.SetLabel(causal::algorithm_name(Algorithm::kOptTrack));
}

void BM_LocalReadQ(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  auto cluster = make_cluster(Algorithm::kOptTrack, kQAxisSites, q,
                              pick_p(Algorithm::kOptTrack, kQAxisSites));
  prefill(*cluster);
  // Each read merges its var's LastWriteOn log into LOG; one untimed pass
  // over the local vars lets LOG reach the size the timed reads see.
  for (const auto v : cluster->replica_map().vars_at(0)) {
    cluster->site(0).read(v, [](const causal::Value&) {});
  }
  time_local_reads(state, *cluster);
  state.counters["log_entries"] =
      static_cast<double>(cluster->site(0).log_entry_count());
  state.SetLabel(causal::algorithm_name(Algorithm::kOptTrack));
}

}  // namespace

BENCHMARK_CAPTURE(BM_Write, full_track, Algorithm::kFullTrack)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Write, opt_track, Algorithm::kOptTrack)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Write, opt_track_crp, Algorithm::kOptTrackCRP)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_Write, optp, Algorithm::kOptP)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK_CAPTURE(BM_LocalRead, full_track, Algorithm::kFullTrack)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_LocalRead, opt_track, Algorithm::kOptTrack)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_LocalRead, opt_track_crp, Algorithm::kOptTrackCRP)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK_CAPTURE(BM_LocalRead, optp, Algorithm::kOptP)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK(BM_WriteQ)->Arg(16)->Arg(4096)->Arg(16384);
BENCHMARK(BM_LocalReadQ)->Arg(16)->Arg(4096)->Arg(16384);

namespace {

/// Console output as usual, plus one JSON row per finished benchmark so the
/// sweep harness can snapshot/aggregate this binary like every other bench.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bench::JsonReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      out_->add_row({{"name", run.benchmark_name()},
                     {"real_ns_per_op", run.GetAdjustedRealTime()},
                     {"cpu_ns_per_op", run.GetAdjustedCPUTime()},
                     {"iterations", run.iterations},
                     {"label", run.report_label}});
    }
  }

 private:
  bench::JsonReporter* out_;
};

}  // namespace

// Custom BENCHMARK_MAIN: peels off the shared bench flags (--quick, --out,
// --seed) before google-benchmark sees argv, maps --quick onto a short
// --benchmark_min_time, and exits 2 on flags neither layer recognizes.
int main(int argc, char** argv) {
  bench::Args args;
  args.out = "";  // stdout-only unless --out= is given
  std::vector<char*> bench_argv{argv[0]};
  std::vector<std::string> owned;
  owned.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick" || arg == "--quick=true") {
      args.quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out = arg.substr(6);
    } else if (arg.rfind("--seed=", 0) == 0) {
      // Accepted for CLI uniformity; google-benchmark runs are not seeded.
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else {
      owned.push_back(arg);
      bench_argv.push_back(owned.back().data());
    }
  }
  if (args.quick) {
    owned.push_back("--benchmark_min_time=0.01");
    bench_argv.push_back(owned.back().data());
  }

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 2;
  }

  bench::JsonReporter report("table1_op_time", args);
  CaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return report.write() ? 0 : 1;
}
