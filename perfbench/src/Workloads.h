//===- Workloads.h - The benchmark's three workloads ----------------------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <string>
#include <vector>

namespace perfbench {

/// One run's configuration, straight from the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 15.0;
  /// The traced run: record spans, time the figure-strategy bars and
  /// report the per-layer metrics instead of the end-to-end ones.
  bool Trace = false;
  /// Where the traced run writes its spans (empty = keep them in memory).
  std::string TraceOut;
};

/// What a run prints as its result line.
struct WorkloadResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// zoo-analytic, zoo-profiled, serve-mix.
const std::vector<std::string> &workloadNames();

/// Run one workload. Progress, per-model tables and every failed check go
/// to stderr.
WorkloadResult runWorkload(const RunOptions &Options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
