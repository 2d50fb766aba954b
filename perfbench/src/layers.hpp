// Traced run: replays the workload's seeded op stream straight into each
// layer's public functions and reports per-layer time, waits and counts.
// Spans are recorded by this file around the calls into each layer; the
// program itself carries no instrumentation.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "e2e.hpp"

namespace perfbench {

/// Every per-layer metric of BENCHMARK.json, in its order. `e2e` is the
/// trace run's end-to-end half (for the residual and overhead rows). A
/// layer harness that lost work appends a line to `problems`.
std::vector<Metric> run_layers(const RunOptions& opts, const E2EResult& e2e,
                               std::vector<std::string>* problems);

}  // namespace perfbench
