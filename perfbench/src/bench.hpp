// Shared run options, result rows and small statistics helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Shrinks key counts and phase lengths for the self-test.
  bool tiny = false;
  /// Corrupt the value of one get response before it is checked (self-test
  /// of the correctness check; the run must then report correct=false).
  bool inject_corrupt_read = false;
  /// Scratch directory inside the checkout (WAL data, span dumps).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Exact quantile of a sample (nearest rank on the sorted copy); 0 when
/// empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Resident set size of this process, in MiB.
double rss_mb();

}  // namespace perfbench
