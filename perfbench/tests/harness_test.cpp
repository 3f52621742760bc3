//===- harness_test.cpp - Tests of the benchmark's own helpers ------------===//
//
// Part of primsel's benchmark (perfbench/). Run with
//   ctest --test-dir .bench_build/perfbench
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Trace.h"

#include <cmath>
#include <cstdio>
#include <limits>

using namespace perfbench;

namespace {

int Failures = 0;

void expectTrue(bool Ok, const char *What, int Line) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", Line, What);
  }
}

void expectNear(double Got, double Want, const char *What, int Line) {
  bool Ok = std::isinf(Want) ? Got == Want
                             : std::fabs(Got - Want) <= 1e-9 * (1 + std::fabs(Want));
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL line %d: %s: got %.17g, want %.17g\n", Line,
                 What, Got, Want);
  }
}

#define EXPECT_TRUE(X) expectTrue((X), #X, __LINE__)
#define EXPECT_NEAR(G, W) expectNear((G), (W), #G, __LINE__)

void testPercentiles() {
  // Sorted 1..5: rank P/100 * 4, interpolated.
  std::vector<double> V = {5, 1, 4, 2, 3};
  EXPECT_NEAR(percentile(V, 0), 1.0);
  EXPECT_NEAR(percentile(V, 50), 3.0);
  EXPECT_NEAR(percentile(V, 100), 5.0);
  EXPECT_NEAR(percentile(V, 90), 4.6); // rank 3.6: 4 + 0.6 * (5 - 4)
  EXPECT_NEAR(percentile(V, 25), 2.0);
  EXPECT_NEAR(median({1, 2, 3, 10}), 2.5);
  EXPECT_NEAR(median({7}), 7.0);
}

void testTailRule() {
  // Below forty samples the median alone.
  EXPECT_NEAR(LatencySet::tailPercentileFor(1), 50.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(39), 50.0);
  // Forty samples leave exactly ten beyond p75.
  EXPECT_NEAR(LatencySet::tailPercentileFor(40), 75.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(99), 75.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(100), 90.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(199), 90.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(200), 95.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(1000), 99.0);
  EXPECT_NEAR(LatencySet::tailPercentileFor(10000), 99.9);

  // 100 samples 1..100: the tail is p90, rank 89.1 -> 90.1.
  LatencySet L;
  for (int I = 1; I <= 100; ++I)
    L.add(I);
  EXPECT_NEAR(L.tail(), 90.1);
  EXPECT_NEAR(L.median(), 50.5);
}

void testGeomean() {
  EXPECT_NEAR(geomean({2, 8}), 4.0);
  EXPECT_NEAR(geomean({1, 10, 100}), 10.0);
  EXPECT_NEAR(geomean({3}), 3.0);
}

void testRefusedMissesEveryLimit() {
  // Nine requests served in 1 ms and one refused: the refusal sorts above
  // every served request, so every percentile that reaches it reads
  // +infinity -- above any latency limit, however generous.
  const double Inf = std::numeric_limits<double>::infinity();
  LatencySet L;
  for (int I = 0; I < 9; ++I)
    L.add(1.0);
  L.addRefused();
  EXPECT_NEAR(L.median(), 1.0);
  EXPECT_NEAR(L.percentile(100), Inf);
  EXPECT_NEAR(L.percentile(95), Inf); // rank 8.55 reaches the refusal
  EXPECT_NEAR(L.percentile(88), 1.0); // rank 7.92 stays among the served
  // Forty requests put the tail at p75 (rank 29.25): with ten refused it
  // reaches a refusal and is a miss; with four it stays among the served.
  LatencySet Ten, Four;
  for (int I = 0; I < 40; ++I) {
    if (I < 30)
      Ten.add(5.0);
    else
      Ten.addRefused();
    if (I < 36)
      Four.add(5.0);
    else
      Four.addRefused();
  }
  EXPECT_NEAR(Ten.tail(), Inf);
  EXPECT_NEAR(Four.tail(), 5.0);
}

void testLogitCheck() {
  using primsel::Layout;
  using primsel::Tensor3D;
  Tensor3D Ref(10, 1, 1, Layout::CHW);
  for (int64_t C = 0; C < 10; ++C)
    Ref.at(C, 0, 0) = static_cast<float>(C - 4) * 1000.0f;
  Tensor3D Same = cloneTensor(Ref);
  EXPECT_NEAR(relativeError(Same, Ref), 0.0);
  EXPECT_TRUE(bitIdentical(Same, Ref));

  // One logit off by 1 in a range of 5000: 2e-4 relative, above the
  // benchmark's 2e-5 bound; a 1e-7 relative wobble stays below it.
  Tensor3D Off = cloneTensor(Ref);
  Off.at(3, 0, 0) += 1.0f;
  EXPECT_NEAR(relativeError(Off, Ref), 1.0 / 5000.0);
  EXPECT_TRUE(relativeError(Off, Ref) > 2e-5);
  EXPECT_TRUE(!bitIdentical(Off, Ref));
  Tensor3D Wobble = cloneTensor(Ref);
  Wobble.at(9, 0, 0) += 0.0005f;
  EXPECT_TRUE(relativeError(Wobble, Ref) < 2e-5);

  Tensor3D Nan = cloneTensor(Ref);
  Nan.at(0, 0, 0) = std::nanf("");
  EXPECT_TRUE(std::isinf(relativeError(Nan, Ref)));
  Tensor3D Small(5, 1, 1, Layout::CHW);
  EXPECT_TRUE(std::isinf(relativeError(Small, Ref)));
}

void testScheduleIsAFunctionOfTheSeed() {
  std::vector<StreamSpec> Streams = {{12.5, 100, 8}, {70.0, 500, 8}};
  std::vector<Arrival> A = openLoopSchedule(42, Streams);
  std::vector<Arrival> B = openLoopSchedule(42, Streams);
  std::vector<Arrival> C = openLoopSchedule(43, Streams);
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(!(A == C));
  EXPECT_TRUE(A.size() == 600);
  size_t PerStream[2] = {0, 0};
  bool Sorted = true, InputsInRange = true;
  for (size_t I = 0; I < A.size(); ++I) {
    ++PerStream[A[I].Stream];
    Sorted &= I == 0 || A[I - 1].DueNs <= A[I].DueNs;
    InputsInRange &= A[I].Input < 8;
  }
  EXPECT_TRUE(Sorted);
  EXPECT_TRUE(InputsInRange);
  EXPECT_TRUE(PerStream[0] == 100 && PerStream[1] == 500);
  // The mean gap of stream 1 is near 1/70 s (500 draws: within 15%).
  int64_t Last = 0;
  for (const Arrival &X : A)
    if (X.Stream == 1)
      Last = X.DueNs;
  double MeanGapMs = static_cast<double>(Last) / 500.0 * 1e-6;
  EXPECT_TRUE(std::fabs(MeanGapMs - 1000.0 / 70.0) < 0.15 * 1000.0 / 70.0);
}

void testSelfTime() {
  // A parent of 100 ns with two children of 30 and 20 ns: 50 ns self.
  std::vector<SpanRecord> Spans(3);
  Spans[0] = {"optimize", 1, 0, 0, 0, 0, 100};
  Spans[1] = {"cost", 2, 1, 0, 0, 10, 40};
  Spans[2] = {"cost", 3, 1, 0, 0, 50, 70};
  std::map<std::string, double> Self = selfSecondsOf(Spans);
  EXPECT_NEAR(Self["optimize"], 50e-9);
  EXPECT_NEAR(Self["cost"], 50e-9);
}

void testResultLine() {
  std::string J = resultJson(true, 3, 0, {{"setup_s", "s", 1.5}});
  EXPECT_TRUE(J == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                   "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": "
                   "\"s\"}}}");
}

} // namespace

int main() {
  testPercentiles();
  testTailRule();
  testGeomean();
  testRefusedMissesEveryLimit();
  testLogitCheck();
  testScheduleIsAFunctionOfTheSeed();
  testSelfTime();
  testResultLine();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("all perfbench harness tests passed\n");
  return 0;
}
