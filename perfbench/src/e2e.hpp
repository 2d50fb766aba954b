// End-to-end run: an in-process 3-site loopback cluster of real
// SiteServers driven through their client ports by one open-loop load
// generator thread (3 site connections + 1 visibility-probe connection).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Latency samples (microseconds) of one open-loop phase.
struct PhaseSamples {
  std::vector<double> put, get, remote_get, visibility, lag;
  std::vector<double> all;  ///< every put and get, in completion order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct E2EResult {
  PhaseSamples fixed;  ///< the fixed-rate measurement phase
  /// Trace runs only: the same fixed-rate phase with client spans recorded.
  PhaseSamples traced;
  /// Median over the closed-loop slices of the ops completed per second.
  double peak_ops_s = 0;
  /// Round trips of the host-speed probe during the fixed-rate slices.
  std::vector<double> probe_rtt_us;
  std::vector<double> setup_s;  ///< one per set-up
  double rss_mb = 0;
  std::uint64_t attempted = 0;  ///< every op and probe of every phase
  std::uint64_t failed = 0;
  std::uint64_t ops_hash = 0;  ///< key count and every generated op stream
  std::vector<std::string> violations;
};

E2EResult run_e2e(const RunOptions& opts);

}  // namespace perfbench
