//===- Harness.h - Statistics, checks and schedules of the benchmark -------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure pieces of the benchmark, kept apart from the workloads so the
/// benchmark's own tests can pin them on hand-computed fixtures:
///
///  - latency statistics: percentiles, the tail rule (the highest
///    percentile that leaves at least ten samples beyond it; the median
///    alone below forty samples) and the geometric mean;
///  - refused requests, which count as missing every latency limit;
///  - the logit check that compares a plan's pre-softmax output against a
///    reference plan with a relative bound;
///  - the open-loop arrival schedule, a pure function of the seed;
///  - the result line the benchmark prints last.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "tensor/Tensor.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Latency samples of one model in one phase. A refused or failed request
/// has no latency: it is kept as +infinity, so it misses every limit and
/// sorts above every served request.
class LatencySet {
public:
  void add(double Ms) { Samples.push_back(Ms); }
  void addRefused();
  size_t count() const { return Samples.size(); }
  /// Percentile \p P in [0, 100], linearly interpolated between the two
  /// nearest ranks of the sorted samples (+infinity when it reaches a
  /// refused request). Asserts the set is non-empty.
  double percentile(double P) const;
  double median() const { return percentile(50.0); }
  /// The tail percentile tailPercentileFor(count()) of these samples.
  double tail() const { return percentile(tailPercentileFor(count())); }
  const std::vector<double> &samples() const { return Samples; }

  /// The tail rule: the highest of 99.9, 99, 95, 90 and 75 that leaves at
  /// least ten samples beyond it among \p N; 50 (the median alone) when
  /// \p N is below forty.
  static double tailPercentileFor(size_t N);

private:
  std::vector<double> Samples;
};

/// Percentile \p P in [0, 100] of \p Samples (any order), interpolated as
/// in LatencySet::percentile. Asserts non-empty.
double percentile(std::vector<double> Samples, double P);
double median(std::vector<double> Samples);
/// Geometric mean of strictly positive \p Values. Asserts non-empty.
double geomean(const std::vector<double> &Values);

/// max |Got - Ref| / max |Ref| over every element, compared by logical
/// (channel, row, column) position so the two tensors may use different
/// layouts. +infinity when the shapes differ, the reference is all zero,
/// or either holds a NaN.
double relativeError(const primsel::Tensor3D &Got,
                     const primsel::Tensor3D &Ref);

/// A deep copy of \p T (same shape, layout and bytes).
primsel::Tensor3D cloneTensor(const primsel::Tensor3D &T);

/// True when the two tensors hold the same shape, layout and bytes.
bool bitIdentical(const primsel::Tensor3D &A, const primsel::Tensor3D &B);

/// An independent seed for stream \p Stream of the run seeded \p Seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream);

/// One Poisson stream of an open-loop schedule: a fixed number of
/// arrivals at a fixed absolute rate, each drawing one of \p Inputs
/// inputs.
struct StreamSpec {
  double RatePerSec = 1.0;
  unsigned Count = 0;
  unsigned Inputs = 1;
};

/// One scheduled request: when it is due (ns after the phase starts),
/// which stream it belongs to and which of the stream's inputs it sends.
struct Arrival {
  int64_t DueNs = 0;
  unsigned Stream = 0;
  unsigned Input = 0;
  bool operator==(const Arrival &O) const {
    return DueNs == O.DueNs && Stream == O.Stream && Input == O.Input;
  }
};

/// The merged open-loop schedule of \p Streams, sorted by due time: each
/// stream draws exponential gaps and input indices from its own seed
/// derived from \p Seed. A pure function of its arguments.
std::vector<Arrival> openLoopSchedule(uint64_t Seed,
                                      const std::vector<StreamSpec> &Streams);

/// One reported metric.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
};

/// The benchmark's result line: one JSON object with the keys correct,
/// attempted, failed and metrics. Non-finite values print as null.
std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics);

/// The process's resident-set high-water mark, in MiB.
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
