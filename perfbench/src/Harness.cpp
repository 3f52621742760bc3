//===- Harness.cpp - Statistics, checks and schedules of the benchmark -----===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Random.h"

#include <sys/resource.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace perfbench;

void LatencySet::addRefused() {
  Samples.push_back(std::numeric_limits<double>::infinity());
}

double LatencySet::percentile(double P) const {
  return perfbench::percentile(Samples, P);
}

double LatencySet::tailPercentileFor(size_t N) {
  if (N < 40)
    return 50.0;
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(N) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return 75.0; // N >= 40 always leaves ten samples beyond p75
}

double perfbench::percentile(std::vector<double> Samples, double P) {
  assert(!Samples.empty() && "percentile of an empty sample");
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  if (Frac == 0.0 || Samples[Lo] == Samples[Hi])
    return Samples[Lo];
  if (std::isinf(Samples[Hi]))
    return Samples[Hi];
  return Samples[Lo] + Frac * (Samples[Hi] - Samples[Lo]);
}

double perfbench::median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50.0);
}

double perfbench::geomean(const std::vector<double> &Values) {
  assert(!Values.empty() && "geomean of nothing");
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double perfbench::relativeError(const primsel::Tensor3D &Got,
                                const primsel::Tensor3D &Ref) {
  const double Inf = std::numeric_limits<double>::infinity();
  if (Got.channels() != Ref.channels() || Got.height() != Ref.height() ||
      Got.width() != Ref.width())
    return Inf;
  double MaxDiff = 0.0, MaxRef = 0.0;
  for (int64_t C = 0; C < Ref.channels(); ++C)
    for (int64_t H = 0; H < Ref.height(); ++H)
      for (int64_t W = 0; W < Ref.width(); ++W) {
        double G = Got.at(C, H, W), R = Ref.at(C, H, W);
        if (std::isnan(G) || std::isnan(R))
          return Inf;
        MaxDiff = std::max(MaxDiff, std::fabs(G - R));
        MaxRef = std::max(MaxRef, std::fabs(R));
      }
  return MaxRef > 0.0 ? MaxDiff / MaxRef : Inf;
}

primsel::Tensor3D perfbench::cloneTensor(const primsel::Tensor3D &T) {
  primsel::Tensor3D Copy(T.channels(), T.height(), T.width(), T.layout());
  std::memcpy(Copy.data(), T.data(),
              static_cast<size_t>(T.size()) * sizeof(float));
  return Copy;
}

bool perfbench::bitIdentical(const primsel::Tensor3D &A,
                             const primsel::Tensor3D &B) {
  return A.sameShape(B) && A.layout() == B.layout() &&
         std::memcmp(A.data(), B.data(),
                     static_cast<size_t>(A.size()) * sizeof(float)) == 0;
}

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Stream) {
  primsel::Rng R(Seed ^ (0x9e3779b97f4a7c15ull * (Stream + 1)));
  return R.next();
}

std::vector<Arrival>
perfbench::openLoopSchedule(uint64_t Seed,
                            const std::vector<StreamSpec> &Streams) {
  std::vector<Arrival> Out;
  for (unsigned S = 0; S < Streams.size(); ++S) {
    const StreamSpec &Spec = Streams[S];
    primsel::Rng Gaps(deriveSeed(Seed, 2 * S));
    primsel::Rng Pick(deriveSeed(Seed, 2 * S + 1));
    double DueNs = 0.0;
    for (unsigned I = 0; I < Spec.Count; ++I) {
      // Exponential gap by inversion; nextFloat() < 1, so the log is
      // finite.
      double U = static_cast<double>(Gaps.nextFloat());
      DueNs += -std::log(1.0 - U) * 1e9 / Spec.RatePerSec;
      Arrival A;
      A.DueNs = static_cast<int64_t>(DueNs);
      A.Stream = S;
      A.Input = static_cast<unsigned>(Pick.nextBelow(Spec.Inputs));
      Out.push_back(A);
    }
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Arrival &A, const Arrival &B) {
                     return A.DueNs < B.DueNs;
                   });
  return Out;
}

std::string perfbench::resultJson(bool Correct, uint64_t Attempted,
                                  uint64_t Failed,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    char Value[64];
    if (std::isfinite(M.Value))
      std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    else
      std::snprintf(Value, sizeof(Value), "null");
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Value +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double perfbench::peakRssMiB() {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}
