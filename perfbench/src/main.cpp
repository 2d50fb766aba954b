// ccpr_perfbench: one run of one workload. Prints a single JSON line:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...},
//    "info":{...}}
// perfbench/run.py builds this binary, adds the host fingerprint and
// re-emits the result in the benchmark's output format.
//
//   ccpr_perfbench --workload=read_mostly --seed=1 --seconds=10 --trace=0
//                  --work-dir=DIR [--tiny] [--inject-corrupt-read]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>
#include <string>
#include <vector>

#include "bench.hpp"
#include "e2e.hpp"
#include "layers.hpp"

namespace {

using perfbench::Metric;

void json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  if (arg[n] == '\0') {
    *value = "1";
    return true;
  }
  return false;
}

int usage(const char* msg) {
  std::fprintf(stderr, "ccpr_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (flag(argv[i], "--workload", &v)) {
      workload = v;
    } else if (flag(argv[i], "--seed", &v)) {
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag(argv[i], "--seconds", &v)) {
      opts.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag(argv[i], "--trace", &v)) {
      opts.trace = v == "1";
    } else if (flag(argv[i], "--tiny", &v)) {
      opts.tiny = v == "1";
    } else if (flag(argv[i], "--inject-corrupt-read", &v)) {
      opts.inject_corrupt_read = v == "1";
    } else if (flag(argv[i], "--work-dir", &v)) {
      opts.work_dir = v;
    } else {
      return usage((std::string("unknown flag ") + argv[i]).c_str());
    }
  }
  const auto spec = perfbench::find_workload(workload);
  if (!spec) return usage("unknown --workload");
  if (opts.work_dir.empty()) return usage("--work-dir is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");
  opts.spec = *spec;
  std::filesystem::create_directories(opts.work_dir);

  perfbench::E2EResult e2e = perfbench::run_e2e(opts);
  std::vector<Metric> metrics;
  const auto& f = e2e.fixed;
  if (!opts.trace) {
    // Latency and peak rate in units of the host probe's loopback round
    // trip, measured in the same run: the host's speed drifted by up to
    // 1.5x within minutes and moved both alike, so the ratio is what a
    // change to the program can move. run-info keeps the raw figures.
    const double rtt = perfbench::median(e2e.probe_rtt_us);
    if (!(rtt > 0)) e2e.violations.push_back("the host probe measured nothing");
    metrics.push_back({"put_p50_rtt", perfbench::median(f.put) / rtt, "rtt"});
    metrics.push_back({"get_p50_rtt", perfbench::median(f.get) / rtt, "rtt"});
    metrics.push_back({"remote_get_p50_rtt", perfbench::median(f.remote_get) / rtt, "rtt"});
    metrics.push_back({"visibility_p50_rtt", perfbench::median(f.visibility) / rtt, "rtt"});
    metrics.push_back({"peak_ops_per_rtt", e2e.peak_ops_s * rtt / 1e6, "ops/rtt"});
    metrics.push_back({"setup_s", perfbench::median(e2e.setup_s), "s"});
    metrics.push_back({"rss_mb", e2e.rss_mb, "MiB"});
  } else if (e2e.violations.empty()) {
    metrics = perfbench::run_layers(opts, e2e, &e2e.violations);
  }

  std::string out = "{\"correct\": ";
  out += e2e.violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(e2e.attempted);
  out += ", \"failed\": " + std::to_string(e2e.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    json_string(out, metrics[i].name);
    out += ": {\"value\": " + num(metrics[i].value) + ", \"unit\": ";
    json_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}, \"info\": {";
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(e2e.ops_hash));
  out += "\"workload\": ";
  json_string(out, opts.spec.name);
  out += ", \"seed\": " + std::to_string(opts.seed);
  out += ", \"ops_hash\": \"" + std::string(hash) + "\"";
  out += ", \"offered_rate_ops_s\": " + num(opts.spec.rate_ops_s);
  out += ", \"gen.lag_p99_us\": " + num(perfbench::quantile(f.lag, 0.99));
  // Raw latencies of the fixed-rate phase beside their sample counts. The
  // p99s follow the host's stalls more than the program, so they are
  // reported here for diagnosis and are not benchmark metrics.
  const std::pair<const char*, const std::vector<double>*> kinds[] = {
      {"put", &f.put}, {"get", &f.get}, {"remote_get", &f.remote_get},
      {"visibility", &f.visibility}};
  for (const char* field : {"samples", "p50_us", "p99_us"}) {
    out += std::string(", \"") + field + "\": {";
    for (std::size_t i = 0; i < std::size(kinds); ++i) {
      if (i) out += ", ";
      out += std::string("\"") + kinds[i].first + "\": ";
      const auto& v = *kinds[i].second;
      if (field[1] == 'a') {
        out += std::to_string(v.size());
      } else {
        out += num(perfbench::quantile(v, field[1] == '5' ? 0.5 : 0.99));
      }
    }
    out += "}";
  }
  out += ", \"peak_ops_s\": " + num(e2e.peak_ops_s);
  out += ", \"probe_rtt_us\": " + num(perfbench::median(e2e.probe_rtt_us));
  out += ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < e2e.setup_s.size(); ++i) {
    if (i) out += ", ";
    out += num(e2e.setup_s[i]);
  }
  out += "], \"violations\": [";
  for (std::size_t i = 0; i < e2e.violations.size(); ++i) {
    if (i) out += ", ";
    json_string(out, e2e.violations[i]);
  }
  out += "]}}";
  std::printf("%s\n", out.c_str());
  return e2e.violations.empty() ? 0 : 1;
}
