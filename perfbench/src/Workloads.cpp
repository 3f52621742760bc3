//===- Workloads.cpp - The benchmark's three workloads --------------------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every workload drives the library from outside, through its public
/// API: buildModel, Engine::optimize/compile/planFor,
/// CompiledNet::newContext, ExecutionContext::run, ModelRegistry and
/// FleetServer, and the CostProvider interface (a forwarding provider
/// beneath the engine's cost cache counts and times the raw cost calls).
///
///  - zoo-analytic: five zoo models selected under the analytic Haswell
///    model in serving mode at -O1, compiled, and run batch-1 on one
///    arena-backed context by one closed-loop caller.
///  - zoo-profiled: alexnet and googlenet with costs profiled on this
///    machine from an empty cost database (totals, -O0), then solved,
///    compiled and run as above.
///  - serve-mix: resnet18 and mobilenet resident in one ModelRegistry
///    behind a FleetServer; open-loop Poisson arrivals at a fixed absolute
///    rate, then a closed-loop phase with a fixed number of outstanding
///    requests.
///
/// Every workload checks its outputs apart from the plan under test: the
/// logits of the node feeding the softmax against the sum2d reference plan
/// of the same execution graph; the solver's optimality and its plan's
/// modelled cost against every figure-strategy plan; and, in serve-mix,
/// every response bit for bit against a single-context run of the same
/// artifact on the same input.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Trace.h"

#include "core/Legalizer.h"
#include "cost/AnalyticModel.h"
#include "cost/Profiler.h"
#include "engine/Engine.h"
#include "nn/Models.h"
#include "primitives/Registry.h"
#include "serve/Fleet.h"
#include "support/Random.h"
#include "transforms/Pass.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

using namespace perfbench;
using namespace primsel;

namespace {

constexpr double ModelScale = 0.25;
constexpr uint64_t WeightSeed = 7;
/// Relative bound of the logit check (max abs difference over max abs
/// reference logit). Every figure-strategy plan of the zoo sits at or below
/// 4.3e-6; one GEMM output element off by 0.1% per call reads 3.9e-5.
constexpr double LogitBound = 2e-5;
/// Distinct seeded inputs per model.
constexpr unsigned InputsPerModel = 8;
constexpr double MiB = 1024.0 * 1024.0;
/// Set-ups per run of the workloads whose set-up takes about a second;
/// setup_s is their median. zoo-profiled sets up once: its one set-up
/// profiles for half a minute.
constexpr unsigned SetUpRepeats = 5;

int64_t msToNs(double Ms) { return static_cast<int64_t>(Ms * 1e6); }
double nsToMs(int64_t Ns) { return static_cast<double>(Ns) * 1e-6; }

/// The zoo's tail: the tail rule, but never below p75. At the benchmark's
/// run length zoo-analytic gathers 30-40 runs per model (one vgg-b run
/// takes a fifth of a second), so the rule alone would flip between the
/// median and p75 from run to run; p75 keeps 8-10 runs beyond it.
double zooTailPercentile(size_t N) {
  return std::max(75.0, LatencySet::tailPercentileFor(N));
}

/// Report a failed check on stderr and clear \p Correct.
__attribute__((format(printf, 3, 4))) void expect(bool Ok, bool &Correct,
                                                   const char *Fmt, ...) {
  if (Ok)
    return;
  Correct = false;
  std::va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "CHECK FAILED: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
}

/// Forwards every query to the raw provider, counting the calls and timing
/// them (the engine's cache sits above it, so every call here is a miss of
/// that cache: a real profile or model evaluation).
class CountingCostProvider : public CostProvider {
public:
  explicit CountingCostProvider(CostProvider &Inner) : Inner(Inner) {}

  double convCost(const ConvScenario &S, PrimitiveId Id) override {
    return timed([&] { return Inner.convCost(S, Id); });
  }
  double transformCost(Layout From, Layout To,
                       const TensorShape &Shape) override {
    return timed([&] { return Inner.transformCost(From, To, Shape); });
  }
  CostBreakdown convCostBreakdown(const ConvScenario &S,
                                  PrimitiveId Id) override {
    return timed([&] { return Inner.convCostBreakdown(S, Id); });
  }
  CostBreakdown transformCostBreakdown(Layout From, Layout To,
                                       const TensorShape &Shape) override {
    return timed(
        [&] { return Inner.transformCostBreakdown(From, To, Shape); });
  }
  double convServingCost(const ConvScenario &S, PrimitiveId Id) override {
    return timed([&] { return Inner.convServingCost(S, Id); });
  }
  double convCostAt(const ConvScenario &S, PrimitiveId Id,
                    unsigned Threads) override {
    return timed([&] { return Inner.convCostAt(S, Id, Threads); });
  }
  double convServingCostAt(const ConvScenario &S, PrimitiveId Id,
                           unsigned Threads) override {
    return timed([&] { return Inner.convServingCostAt(S, Id, Threads); });
  }
  CostBreakdown convCostBreakdownAt(const ConvScenario &S, PrimitiveId Id,
                                    unsigned Threads) override {
    return timed([&] { return Inner.convCostBreakdownAt(S, Id, Threads); });
  }
  double dispatchOverheadMs() const override {
    return Inner.dispatchOverheadMs();
  }
  std::string identity() const override { return Inner.identity(); }

  uint64_t rawEvals() const { return Evals; }
  double rawSeconds() const { return static_cast<double>(Ns) * 1e-9; }

private:
  template <typename Fn> auto timed(Fn &&F) -> decltype(F()) {
    Span S("cost");
    ++Evals;
    int64_t T0 = nowNs();
    auto R = F();
    Ns += nowNs() - T0;
    return R;
  }

  CostProvider &Inner;
  uint64_t Evals = 0;
  int64_t Ns = 0;
};

/// One model as the workload deploys it.
struct Deployed {
  Deployed(std::string N, NetworkGraph G)
      : Name(std::move(N)), Net(std::move(G)) {}

  std::string Name;
  NetworkGraph Net;
  SelectionResult Sel;
  std::shared_ptr<const CompiledNet> Art;
  /// The measured context: one thread, arena on.
  std::unique_ptr<ExecutionContext> Ctx;
  std::vector<Tensor3D> Inputs;
  double CompileMs = 0.0;

  // Closed-loop measurements (zoo) or single-context runs (serve-mix).
  LatencySet Lat;
  std::vector<double> Total, Conv, Transform, Other;
  std::vector<double> TracedMs, UntracedMs;

  // Filled by the checks and, in the traced run, by the bars.
  double ModelledMs = 0.0;
  std::vector<std::pair<std::string, double>> Bars;
  double BestBaselineMs = 0.0;
  double PbqpBarMs = 0.0;

  const NetworkGraph &graph() const { return Art->graph(); }
};

/// Everything one set-up builds. Member order is destruction order in
/// reverse: the engine outlives the artifacts it compiled, and the cost
/// providers outlive the engine.
struct Stack {
  std::unique_ptr<CostProvider> Raw;
  std::unique_ptr<CountingCostProvider> Counting;
  std::unique_ptr<Engine> Eng;
  std::unique_ptr<serve::ModelRegistry> Registry; ///< serve-mix only
  std::vector<std::unique_ptr<Deployed>> Models;
};

const PrimitiveLibrary &library() {
  static const PrimitiveLibrary Lib = buildFullLibrary();
  return Lib;
}

CompileOptions compileOptions() {
  CompileOptions C;
  C.WeightSeed = WeightSeed;
  return C;
}

ExecutionContextOptions arenaContext() {
  ExecutionContextOptions O;
  O.Threads = 1;
  O.UseArena = true;
  return O;
}

void makeInputs(Deployed &D, uint64_t Seed, unsigned ModelIndex) {
  const TensorShape &Sh = D.graph().node(0).OutShape;
  for (unsigned K = 0; K < InputsPerModel; ++K) {
    Tensor3D In(Sh.C, Sh.H, Sh.W, Layout::CHW);
    In.fillRandom(deriveSeed(Seed, 1000 + 16 * ModelIndex + K));
    D.Inputs.push_back(std::move(In));
  }
}

/// The stack's cost layer and engine. Serving mode (weight transforms
/// amortized, -O1) is what compile and compiled serving use; profiled mode
/// is the paper's §5.2 method (measured totals, -O0).
void makeEngine(Stack &S, bool Profiled, bool CachePlans) {
  if (Profiled)
    S.Raw = std::make_unique<MeasuredCostProvider>(library());
  else
    S.Raw = std::make_unique<AnalyticCostProvider>(
        library(), MachineProfile::haswell(), 1);
  S.Counting = std::make_unique<CountingCostProvider>(*S.Raw);
  EngineOptions EO;
  EO.Threads = 1;
  EO.ParallelPrepopulate = false;
  EO.AmortizeWeightTransforms = !Profiled;
  if (!Profiled)
    EO.Passes = transforms::PassPipeline::defaultPassNames();
  EO.CachePlans = CachePlans;
  S.Eng = std::make_unique<Engine>(library(), *S.Counting, EO);
}

/// Build, optimize, compile and open a context for every model of a zoo
/// workload.
std::unique_ptr<Stack> setUpZoo(const std::vector<std::string> &Names,
                                bool Profiled) {
  auto S = std::make_unique<Stack>();
  makeEngine(*S, Profiled, /*CachePlans=*/false);
  for (const std::string &Name : Names) {
    std::optional<NetworkGraph> Net;
    {
      Span Sp("build");
      Net = buildModel(Name, ModelScale);
    }
    auto D = std::make_unique<Deployed>(Name, std::move(*Net));
    {
      Span Sp("optimize");
      D->Sel = S->Eng->optimize(D->Net);
    }
    {
      Span Sp("compile");
      int64_t T0 = nowNs();
      D->Art = S->Eng->compile(D->Net, D->Sel, compileOptions());
      D->CompileMs = nsToMs(nowNs() - T0);
    }
    {
      Span Sp("context");
      D->Ctx = D->Art->newContext(arenaContext());
    }
    S->Models.push_back(std::move(D));
  }
  return S;
}

/// One timed run of \p D on input \p K, as one request of the closed loop.
void timedRun(Deployed &D, unsigned K, bool Traced) {
  Tracer &T = Tracer::instance();
  uint64_t Request = T.enabled() ? T.newId() : 0;
  Span Rq("request", Request);
  int64_t T0 = nowNs();
  primsel::RunResult R;
  {
    Span Run("run");
    R = D.Ctx->run(D.Inputs[K]);
  }
  double Ms = nsToMs(nowNs() - T0);
  D.Lat.add(Ms);
  (Traced ? D.TracedMs : D.UntracedMs).push_back(Ms);
  D.Total.push_back(R.TotalMillis);
  D.Conv.push_back(R.ConvMillis);
  D.Transform.push_back(R.TransformMillis);
  D.Other.push_back(R.OtherMillis);
}

/// The zoo's closed loop: one caller, whole rounds over every model (in a
/// seeded order per round, on seeded inputs) until \p Seconds elapse. In
/// the traced run every other round is untraced, so the run measures its
/// own tracing overhead. Returns the number of runs.
uint64_t closedLoop(Stack &S, const RunOptions &Opts, double Seconds) {
  Tracer &T = Tracer::instance();
  for (auto &D : S.Models) // warm-up: caches, page faults, lazy scratch
    for (unsigned K = 0; K < 2; ++K)
      D->Ctx->run(D->Inputs[K]);
  Rng Order(deriveSeed(Opts.Seed, 1)), Pick(deriveSeed(Opts.Seed, 2));
  std::vector<size_t> Perm(S.Models.size());
  uint64_t Runs = 0;
  int64_t Deadline = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  for (unsigned Round = 0; Round == 0 || nowNs() < Deadline; ++Round) {
    bool Traced = Opts.Trace && Round % 2 == 0;
    T.setEnabled(Traced);
    for (size_t I = 0; I < Perm.size(); ++I)
      Perm[I] = I;
    for (size_t I = Perm.size(); I > 1; --I)
      std::swap(Perm[I - 1], Perm[Order.nextBelow(I)]);
    for (size_t M : Perm) {
      timedRun(*S.Models[M], static_cast<unsigned>(Pick.nextBelow(
                                 InputsPerModel)),
               Traced);
      ++Runs;
    }
  }
  T.setEnabled(false);
  return Runs;
}

/// The node whose output the logit check compares: the input of the
/// softmax (the network output when there is none).
NetworkGraph::NodeId logitNode(const NetworkGraph &G) {
  for (NetworkGraph::NodeId N = 0; N < G.numNodes(); ++N)
    if (G.node(N).L.Kind == LayerKind::Softmax)
      return G.node(N).Inputs.front();
  return G.outputs().front();
}

/// The plan's modelled cost under the objective the solver minimized: the
/// per-run part in serving mode, the totals otherwise.
double modelledCost(Engine &Eng, const NetworkPlan &Plan,
                    const NetworkGraph &G) {
  if (Eng.options().AmortizeWeightTransforms)
    return modelPlanCostBreakdown(Plan, G, library(), Eng.costs()).PerRunMs;
  return modelPlanCost(Plan, G, library(), Eng.costs());
}

/// The checks every deployed model must pass; all run apart from the plan
/// under test.
void checkModel(Engine &Eng, Deployed &D, bool &Correct) {
  const NetworkGraph &G = D.graph();
  const NetworkPlan &Plan = D.Art->plan();
  expect(D.Sel.Solver.ProvablyOptimal, Correct,
         "%s: the solver did not report an optimal solution", D.Name.c_str());

  D.ModelledMs = modelledCost(Eng, Plan, G);
  for (Strategy St : figureStrategies(false)) {
    if (St == Strategy::PBQP)
      continue;
    double Baseline = modelledCost(Eng, Eng.planFor(St, G), G);
    expect(D.ModelledMs <= Baseline * (1.0 + 1e-9) + 1e-12, Correct,
           "%s: PBQP plan models %.6f ms, above the %s plan's %.6f ms",
           D.Name.c_str(), D.ModelledMs, strategyName(St), Baseline);
  }

  // Logits against the sum2d plan of the same execution graph, on
  // arena-less contexts so every node's output stays readable.
  auto Ref = CompiledNet::build(G, Eng.planFor(Strategy::Sum2D, G), library(),
                                compileOptions());
  std::unique_ptr<ExecutionContext> RefCtx = Ref->newContext();
  std::unique_ptr<ExecutionContext> Plain = D.Art->newContext();
  NetworkGraph::NodeId L = logitNode(G);
  for (unsigned K = 0; K < 2; ++K) {
    RefCtx->run(D.Inputs[K]);
    Plain->run(D.Inputs[K]);
    const Tensor3D &Logits = RefCtx->outputOf(L);
    double Err = relativeError(Plain->outputOf(L), Logits);
    expect(Err <= LogitBound, Correct,
           "%s: logits differ from the sum2d plan by %.3g relative (bound "
           "%.3g)",
           D.Name.c_str(), Err, LogitBound);
    if (K == 0) {
      double MaxLogit = 0.0;
      for (int64_t C = 0; C < Logits.channels(); ++C)
        MaxLogit = std::max(MaxLogit,
                            static_cast<double>(std::fabs(Logits.at(C, 0, 0))));
      std::fprintf(stderr,
                   "check %s: logits reach %.3g; %.3g relative from the sum2d "
                   "plan\n",
                   D.Name.c_str(), MaxLogit, Err);
    }
    // The measured (arena) context computes the same bits.
    D.Ctx->run(D.Inputs[K]);
    expect(bitIdentical(D.Ctx->networkOutput(), Plain->networkOutput()),
           Correct, "%s: arena and plain contexts disagree", D.Name.c_str());
  }
}

/// Median wall time of \p Plan on \p G: one warm-up run, then three.
double timePlan(const NetworkGraph &G, const NetworkPlan &Plan,
                const Tensor3D &Input) {
  auto Art = CompiledNet::build(G, Plan, library(), compileOptions());
  std::unique_ptr<ExecutionContext> Ctx = Art->newContext(arenaContext());
  Ctx->run(Input);
  std::vector<double> Ms;
  for (unsigned I = 0; I < 3; ++I) {
    int64_t T0 = nowNs();
    Ctx->run(Input);
    Ms.push_back(nsToMs(nowNs() - T0));
  }
  return median(Ms);
}

/// The paper's Fig. 5 bars for one model: every figure strategy's plan
/// (PBQP = the deployed plan) and the sum2d plan, each measured the same
/// way on the same execution graph.
void timeBars(Engine &Eng, Deployed &D) {
  const NetworkGraph &G = D.graph();
  D.BestBaselineMs = 0.0;
  for (Strategy St : figureStrategies(false)) {
    bool Pbqp = St == Strategy::PBQP;
    double Ms = timePlan(G, Pbqp ? D.Art->plan() : Eng.planFor(St, G),
                         D.Inputs[0]);
    D.Bars.push_back({strategyName(St), Ms});
    if (Pbqp)
      D.PbqpBarMs = Ms;
    else if (D.BestBaselineMs == 0.0 || Ms < D.BestBaselineMs)
      D.BestBaselineMs = Ms;
  }
  D.Bars.push_back(
      {"sum2d", timePlan(G, Eng.planFor(Strategy::Sum2D, G), D.Inputs[0])});
}

/// The serve-mix measurements beyond the per-model runtime ones.
struct ServeFigures {
  std::vector<LatencySet> OpenLat;        ///< per model, from due time
  /// Geometric mean over models of the median execution time under load
  /// (admission to completion, less the queueing) over the median
  /// single-context latency: how much concurrent serving slows a run.
  double ExecOverSolo = 0.0;
  double QueueNsSum = 0.0, LatencyNsSum = 0.0;
  double GenLateMaxMs = 0.0, MeanGapMs = 0.0;
  double ClosedRps = 0.0;
  double BatchMean = 0.0;
  uint64_t PeakQueue = 0;
  uint64_t Compiles = 0;
};

/// What the workload's client sees, from per-model latency percentiles
/// (geometric means over models) and its closed loop's completions per
/// second. Only the fastest request's latency is bounded: the p10, the
/// median, the tail and the throughput follow this machine's
/// memory-contention phases (see perfbench/README.md), so they are
/// reported per layer.
void pushClientMetrics(const std::vector<double> &Min,
                       const std::vector<double> &P10,
                       const std::vector<double> &P50,
                       const std::vector<double> &Tail, double Rps,
                       std::vector<Metric> &E2E, std::vector<Metric> &Layer) {
  E2E.push_back({"lat_min_ms", "ms", geomean(Min)});
  Layer.push_back({"client.lat_p10_ms", "ms", geomean(P10)});
  Layer.push_back({"client.lat_p50_ms", "ms", geomean(P50)});
  Layer.push_back({"client.lat_tail_ms", "ms", geomean(Tail)});
  Layer.push_back({"client.rps", "1/s", Rps});
}

/// Per-layer and end-to-end metrics common to every workload.
void pushModelMetrics(const Stack &S, const RunOptions &Opts,
                      const std::vector<double> &SetupSeconds,
                      double PeakRssMiB, std::vector<Metric> &E2E,
                      std::vector<Metric> &Layer) {
  double Artifact = 0.0, Prepared = 0.0, CompileMs = 0.0;
  double Total = 0.0, Conv = 0.0, Transform = 0.0, Other = 0.0;
  double BuildMs = 0.0, SolveMs = 0.0, Nodes = 0.0, Edges = 0.0;
  double Removed = 0.0, BestBaseline = 0.0;
  std::vector<double> ModelRatio, PbqpOverBest, Overhead;
  for (const auto &D : S.Models) {
    Artifact += static_cast<double>(
                    serve::ModelRegistry::artifactBytes(*D->Art, 1)) /
                MiB;
    Prepared += static_cast<double>(D->Art->preparedBytes()) / MiB;
    CompileMs += D->CompileMs;
    double T = median(D->Total);
    Total += T;
    Conv += median(D->Conv);
    Transform += median(D->Transform);
    Other += median(D->Other);
    ModelRatio.push_back(D->ModelledMs / T);
    BuildMs += D->Sel.BuildMillis;
    SolveMs += D->Sel.SolveMillis;
    Nodes += D->Sel.NumNodes;
    Edges += D->Sel.NumEdges;
    for (const transforms::PassStats &P : D->Sel.Passes)
      Removed += static_cast<double>(P.NodesBefore) - P.NodesAfter;
    if (Opts.Trace) {
      BestBaseline += D->BestBaselineMs;
      PbqpOverBest.push_back(D->PbqpBarMs / D->BestBaselineMs);
      Overhead.push_back(median(D->TracedMs) / median(D->UntracedMs));
    }
  }
  E2E.push_back({"setup_s", "s", median(SetupSeconds)});
  E2E.push_back({"artifact_mib", "MiB", Artifact});
  E2E.push_back({"peak_rss_mib", "MiB", PeakRssMiB});

  const CostCacheStats *Cache = S.Eng->cacheStats();
  Layer.push_back({"runtime.total_ms", "ms", Total});
  Layer.push_back({"runtime.conv_ms", "ms", Conv});
  Layer.push_back({"runtime.transform_ms", "ms", Transform});
  Layer.push_back({"runtime.other_ms", "ms", Other});
  Layer.push_back({"cost.model_ratio", "ratio", geomean(ModelRatio)});
  Layer.push_back({"cost.raw_evals", "count",
                   static_cast<double>(S.Counting->rawEvals())});
  Layer.push_back({"cost.cache_hits", "count",
                   Cache ? static_cast<double>(Cache->hits()) : 0.0});
  Layer.push_back({"cost.profile_s", "s", S.Counting->rawSeconds()});
  Layer.push_back({"pbqp.build_ms", "ms", BuildMs});
  Layer.push_back({"pbqp.solve_ms", "ms", SolveMs});
  Layer.push_back({"pbqp.nodes", "count", Nodes});
  Layer.push_back({"pbqp.edges", "count", Edges});
  Layer.push_back({"engine.compile_ms", "ms", CompileMs});
  Layer.push_back({"engine.prepared_mib", "MiB", Prepared});
  Layer.push_back({"transforms.nodes_removed", "count", Removed});
  if (Opts.Trace) {
    Layer.push_back({"core.best_baseline_ms", "ms", BestBaseline});
    Layer.push_back({"core.pbqp_over_best", "ratio", geomean(PbqpOverBest)});
    Layer.push_back({"trace.overhead", "ratio", geomean(Overhead)});
  }
}

void pushServeMetrics(const ServeFigures *F, std::vector<Metric> &Layer) {
  Layer.push_back({"serve.queue_share", "ratio",
                   F && F->LatencyNsSum > 0.0
                       ? F->QueueNsSum / F->LatencyNsSum
                       : 0.0});
  Layer.push_back({"serve.exec_over_solo", "ratio",
                   F ? F->ExecOverSolo : 0.0});
  Layer.push_back({"serve.batch_mean", "count", F ? F->BatchMean : 0.0});
  Layer.push_back({"serve.peak_queue", "count",
                   F ? static_cast<double>(F->PeakQueue) : 0.0});
  Layer.push_back({"serve.gen_late_share", "ratio",
                   F && F->MeanGapMs > 0.0 ? F->GenLateMaxMs / F->MeanGapMs
                                           : 0.0});
  Layer.push_back(
      {"fleet.compiles", "count", F ? static_cast<double>(F->Compiles) : 0.0});
}

void pushTraceMetrics(std::vector<Metric> &Layer) {
  std::map<std::string, double> Self = Tracer::instance().selfSeconds();
  for (const char *L :
       {"build", "cost", "optimize", "compile", "context", "run", "request"})
    Layer.push_back({std::string("trace.self_s.") + L, "s", Self[L]});
}

void printModelTable(const Stack &S, bool Trace) {
  std::fprintf(stderr,
               "%-10s %6s %9s %9s %9s %9s %9s %9s %9s %9s %9s %8s\n", "model",
               "runs", "min_ms", "p10_ms", "p50_ms", "tail_ms", "tail_pct",
               "conv_ms", "xform_ms", "other_ms", "model_ms", "art_mib");
  for (const auto &D : S.Models)
    std::fprintf(
        stderr,
        "%-10s %6zu %9.3f %9.3f %9.3f %9.3f %9.1f %9.3f %9.4f %9.3f %9.3f "
        "%8.1f\n",
        D->Name.c_str(), D->Lat.count(), D->Lat.percentile(0),
        D->Lat.percentile(10), D->Lat.median(),
        D->Lat.percentile(zooTailPercentile(D->Lat.count())),
        zooTailPercentile(D->Lat.count()), median(D->Conv),
        median(D->Transform), median(D->Other), D->ModelledMs,
        static_cast<double>(serve::ModelRegistry::artifactBytes(*D->Art, 1)) /
            MiB);
  if (!Trace)
    return;
  for (const auto &D : S.Models) {
    std::fprintf(stderr, "bars %s:", D->Name.c_str());
    for (const auto &B : D->Bars)
      std::fprintf(stderr, " %s=%.2f", B.first.c_str(), B.second);
    std::fprintf(stderr, "\n");
  }
}

/// Metrics order: with tracing off the end-to-end ones, with it on the
/// per-layer ones.
WorkloadResult finish(const RunOptions &Opts, bool Correct, uint64_t Attempted,
                      uint64_t Failed, std::vector<Metric> E2E,
                      std::vector<Metric> Layer) {
  WorkloadResult R;
  R.Correct = Correct;
  R.Attempted = Attempted;
  R.Failed = Failed;
  R.Metrics = Opts.Trace ? std::move(Layer) : std::move(E2E);
  if (Opts.Trace && !Opts.TraceOut.empty() &&
      !Tracer::instance().writeJsonLines(Opts.TraceOut))
    std::fprintf(stderr, "warning: could not write %s\n",
                 Opts.TraceOut.c_str());
  return R;
}

WorkloadResult runZoo(const RunOptions &Opts,
                      const std::vector<std::string> &Names, bool Profiled) {
  // Set-up is timed several times and reported as a median, except when it
  // profiles: one profiling pass already takes most of a run.
  unsigned SetUps = Profiled ? 1 : SetUpRepeats;
  std::vector<double> SetupSeconds;
  std::unique_ptr<Stack> S;
  for (unsigned I = 0; I < SetUps; ++I) {
    S.reset(); // one stack resident at a time
    Tracer::instance().setEnabled(Opts.Trace && I + 1 == SetUps);
    int64_t T0 = nowNs();
    S = setUpZoo(Names, Profiled);
    SetupSeconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    Tracer::instance().setEnabled(false);
  }
  for (unsigned M = 0; M < S->Models.size(); ++M)
    makeInputs(*S->Models[M], Opts.Seed, M);

  int64_t T0 = nowNs();
  uint64_t Runs = closedLoop(*S, Opts, Opts.Seconds);
  double Seconds = static_cast<double>(nowNs() - T0) * 1e-9;

  std::vector<Metric> E2E, Layer;
  std::vector<double> Min, P10, P50, Tail;
  for (const auto &D : S->Models) {
    Min.push_back(D->Lat.percentile(0.0));
    P10.push_back(D->Lat.percentile(10.0));
    P50.push_back(D->Lat.median());
    Tail.push_back(D->Lat.percentile(zooTailPercentile(D->Lat.count())));
  }
  pushClientMetrics(Min, P10, P50, Tail, static_cast<double>(Runs) / Seconds, E2E,
                    Layer);
  double PeakRss = peakRssMiB(); // before the checks allocate reference plans

  bool Correct = true;
  for (auto &D : S->Models) {
    checkModel(*S->Eng, *D, Correct);
    if (Opts.Trace)
      timeBars(*S->Eng, *D);
  }
  pushModelMetrics(*S, Opts, SetupSeconds, PeakRss, E2E, Layer);
  pushServeMetrics(nullptr, Layer);
  pushTraceMetrics(Layer);
  printModelTable(*S, Opts.Trace);
  return finish(Opts, Correct, Runs, 0, std::move(E2E), std::move(Layer));
}

/// serve-mix's models: each one's open-loop rate (requests per second,
/// about two-thirds of what one lane worker sustains for it) and its
/// outstanding requests in the closed-loop phase.
struct MixModel {
  const char *Name;
  double RatePerSec;
  unsigned Outstanding;
};
constexpr MixModel MixModels[] = {{"resnet18", 7.0, 2},
                                  {"mobilenet", 28.0, 2}};
/// Shares of the run spent in the open-loop and closed-loop phases; the
/// single-context reference runs before them take the rest.
constexpr double OpenShare = 0.65;
constexpr double ClosedShare = 0.2;

/// Build both models, register them in one registry, optimize them (for
/// the selection statistics; the registry's compile is then served from
/// the engine's plan cache), acquire (compile) them and open a
/// single-context reference context for each.
std::unique_ptr<Stack> setUpServe() {
  auto S = std::make_unique<Stack>();
  makeEngine(*S, /*Profiled=*/false, /*CachePlans=*/true);
  serve::RegistryOptions RO;
  RO.Compile = compileOptions();
  S->Registry = std::make_unique<serve::ModelRegistry>(*S->Eng, RO);
  for (const MixModel &M : MixModels) {
    std::optional<NetworkGraph> Net;
    {
      Span Sp("build");
      Net = buildModel(M.Name, ModelScale);
      S->Registry->addModel(M.Name, *Net);
    }
    auto D = std::make_unique<Deployed>(M.Name, std::move(*Net));
    {
      Span Sp("optimize");
      D->Sel = S->Eng->optimize(D->Net);
    }
    {
      Span Sp("compile");
      int64_t T0 = nowNs();
      D->Art = S->Registry->acquire(M.Name);
      D->CompileMs = nsToMs(nowNs() - T0);
    }
    {
      Span Sp("context");
      D->Ctx = D->Art->newContext(arenaContext());
    }
    S->Models.push_back(std::move(D));
  }
  return S;
}

/// One submitted serve-mix request.
struct Pending {
  unsigned Model = 0;
  unsigned Input = 0;
  int64_t DueNs = 0; ///< when it was due (closed loop: when submitted)
  int64_t SubmitNs = 0;
  uint64_t Request = 0; ///< trace id (0 = untraced)
  std::future<serve::ServeResponse> Response;
};

/// Wait for \p P's response, check it bit for bit against the
/// single-context reference, record its request span, and return it.
serve::ServeResponse
resolve(Pending &P, const Stack &S,
        const std::vector<std::vector<Tensor3D>> &Reference, bool &Correct) {
  serve::ServeResponse Out = P.Response.get();
  if (!Out.ok())
    return Out;
  expect(bitIdentical(Out.Output, Reference[P.Model][P.Input]), Correct,
         "%s: served output differs from the single-context run on input %u",
         S.Models[P.Model]->Name.c_str(), P.Input);
  if (P.Request) {
    SpanRecord R;
    R.Layer = "request";
    R.Id = P.Request;
    R.Request = P.Request;
    R.StartNs = P.DueNs;
    R.EndNs = P.SubmitNs + Out.TotalNs;
    Tracer::instance().record(R);
  }
  return Out;
}

void sleepUntilNs(int64_t DueNs) {
  int64_t Wait = DueNs - nowNs();
  if (Wait > 0)
    std::this_thread::sleep_for(std::chrono::nanoseconds(Wait));
}

WorkloadResult runServeMix(const RunOptions &Opts) {
  Tracer &T = Tracer::instance();
  std::vector<double> SetupSeconds;
  std::unique_ptr<Stack> S;
  for (unsigned I = 0; I < SetUpRepeats; ++I) {
    S.reset(); // one stack resident at a time
    T.setEnabled(Opts.Trace && I + 1 == SetUpRepeats);
    int64_t T0 = nowNs();
    S = setUpServe();
    SetupSeconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
    T.setEnabled(false);
  }
  const unsigned NumModels = static_cast<unsigned>(S->Models.size());
  for (unsigned M = 0; M < NumModels; ++M)
    makeInputs(*S->Models[M], Opts.Seed, M);
  bool Correct = true;
  uint64_t Attempted = 0, Failed = 0;

  // Phase 1: single-context runs of every input. They give the reference
  // every response must match bit for bit, and the solo latency serving
  // is compared with. In the traced run every other pass is untraced.
  std::vector<std::vector<Tensor3D>> Reference(NumModels);
  for (unsigned M = 0; M < NumModels; ++M) {
    Deployed &D = *S->Models[M];
    D.Ctx->run(D.Inputs[0]); // warm-up
    for (unsigned Pass = 0; Pass < 4; ++Pass) {
      bool Traced = Opts.Trace && Pass % 2 == 0;
      T.setEnabled(Traced);
      for (unsigned K = 0; K < InputsPerModel; ++K) {
        timedRun(D, K, Traced);
        if (Pass == 0)
          Reference[M].push_back(cloneTensor(D.Ctx->networkOutput()));
        else
          expect(bitIdentical(D.Ctx->networkOutput(), Reference[M][K]),
                 Correct, "%s: single-context runs disagree on input %u",
                 D.Name.c_str(), K);
      }
    }
    T.setEnabled(false);
  }

  // One worker per model lane, slots run one at a time: two serving
  // threads plus this generator thread.
  serve::FleetOptions FO;
  FO.Batch.MaxBatch = 4;
  FO.Batch.MaxDelayNs = 0;
  FO.Batch.MaxQueue = 4096;
  FO.WorkersPerModel = 1;
  FO.BatchThreads = 1;
  FO.UseArena = true;

  ServeFigures F;
  F.OpenLat.resize(NumModels);
  std::vector<std::vector<double>> ExecMs(NumModels);
  std::vector<uint64_t> Submitted(NumModels, 0);
  {
    serve::FleetServer Srv(*S->Registry, FO);
    auto Submit = [&](Pending &P) {
      P.Request = T.enabled() ? T.newId() : 0;
      P.SubmitNs = nowNs();
      P.Response = Srv.submit(S->Models[P.Model]->Name,
                              S->Models[P.Model]->Inputs[P.Input])
                       .Response;
      ++Submitted[P.Model];
      ++Attempted;
    };
    T.setEnabled(Opts.Trace);

    // Phase 2: open loop. A fixed number of Poisson arrivals per model at
    // a fixed absolute rate; latency counts from each request's due time.
    std::vector<StreamSpec> Streams;
    for (const MixModel &M : MixModels) {
      StreamSpec St;
      St.RatePerSec = M.RatePerSec;
      St.Count = std::max(
          1u, static_cast<unsigned>(
                  std::lround(M.RatePerSec * OpenShare * Opts.Seconds)));
      St.Inputs = InputsPerModel;
      Streams.push_back(St);
    }
    std::vector<Arrival> Schedule =
        openLoopSchedule(deriveSeed(Opts.Seed, 3), Streams);
    std::vector<Pending> Open(Schedule.size());
    int64_t Start = nowNs() + msToNs(1.0);
    for (size_t I = 0; I < Schedule.size(); ++I) {
      Pending &P = Open[I];
      P.Model = Schedule[I].Stream;
      P.Input = Schedule[I].Input;
      P.DueNs = Start + Schedule[I].DueNs;
      sleepUntilNs(P.DueNs);
      Submit(P);
      F.GenLateMaxMs = std::max(F.GenLateMaxMs, nsToMs(P.SubmitNs - P.DueNs));
    }
    F.MeanGapMs =
        nsToMs(Schedule.back().DueNs) / static_cast<double>(Schedule.size());
    for (Pending &P : Open) {
      serve::ServeResponse R = resolve(P, *S, Reference, Correct);
      if (!R.ok()) {
        ++Failed;
        F.OpenLat[P.Model].addRefused();
        continue;
      }
      int64_t LatencyNs = P.SubmitNs + R.TotalNs - P.DueNs;
      F.OpenLat[P.Model].add(nsToMs(LatencyNs));
      F.QueueNsSum += static_cast<double>(R.QueueNs);
      F.LatencyNsSum += static_cast<double>(LatencyNs);
      ExecMs[P.Model].push_back(nsToMs(R.TotalNs - R.QueueNs));
    }

    // Phase 3: closed loop. Each model keeps a fixed number of requests
    // outstanding; a completion is replaced at once by a request on a
    // seeded input.
    Rng Pick(deriveSeed(Opts.Seed, 4));
    std::vector<std::deque<Pending>> Outstanding(NumModels);
    auto SubmitNext = [&](unsigned M) {
      Outstanding[M].emplace_back();
      Pending &P = Outstanding[M].back();
      P.Model = M;
      P.Input = static_cast<unsigned>(Pick.nextBelow(InputsPerModel));
      P.DueNs = nowNs();
      Submit(P);
    };
    int64_t ClosedStart = nowNs();
    int64_t Deadline =
        ClosedStart + static_cast<int64_t>(ClosedShare * Opts.Seconds * 1e9);
    for (unsigned M = 0; M < NumModels; ++M)
      for (unsigned K = 0; K < MixModels[M].Outstanding; ++K)
        SubmitNext(M);
    uint64_t Completed = 0;
    auto Retire = [&](unsigned M) {
      Pending P = std::move(Outstanding[M].front());
      Outstanding[M].pop_front();
      if (!resolve(P, *S, Reference, Correct).ok())
        ++Failed;
    };
    while (nowNs() < Deadline) {
      bool Progress = false;
      for (unsigned M = 0; M < NumModels; ++M)
        while (!Outstanding[M].empty() &&
               Outstanding[M].front().Response.wait_for(
                   std::chrono::seconds(0)) == std::future_status::ready) {
          Retire(M);
          ++Completed;
          Progress = true;
          if (nowNs() < Deadline)
            SubmitNext(M);
        }
      if (!Progress)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    F.ClosedRps = static_cast<double>(Completed) /
                  (static_cast<double>(nowNs() - ClosedStart) * 1e-9);
    for (unsigned M = 0; M < NumModels; ++M)
      while (!Outstanding[M].empty())
        Retire(M);
    T.setEnabled(false);
    Srv.shutdown();

    // Every submitted request resolved exactly once: each future above was
    // read once, and the lanes' counters account for every submit.
    uint64_t Batches = 0, Batched = 0;
    for (unsigned M = 0; M < NumModels; ++M) {
      const std::string &Name = S->Models[M]->Name;
      serve::BatcherStats BS = Srv.batcherStats(Name);
      serve::LaneStats LS = Srv.laneStats(Name);
      uint64_t Accounted = LS.Exec.RequestsExecuted + BS.RejectedQueueFull +
                           BS.RejectedDeadline + BS.RejectedShutdown +
                           BS.AbandonedAtShutdown + BS.Cancelled +
                           LS.UnavailableRequests;
      expect(BS.Submitted == Submitted[M] && Accounted == Submitted[M],
             Correct,
             "%s: %llu submitted, the lane saw %llu and accounted for %llu",
             Name.c_str(), static_cast<unsigned long long>(Submitted[M]),
             static_cast<unsigned long long>(BS.Submitted),
             static_cast<unsigned long long>(Accounted));
      Batches += BS.Batches;
      Batched += BS.BatchedRequests;
      F.PeakQueue = std::max<uint64_t>(F.PeakQueue, BS.MaxQueueDepth);
    }
    F.BatchMean = Batches ? static_cast<double>(Batched) /
                                static_cast<double>(Batches)
                          : 0.0;
  }
  serve::RegistryStats RS = S->Registry->stats();
  F.Compiles = RS.Compiles;
  expect(RS.Compiles == NumModels && RS.Evictions == 0 && RS.Solves == 0,
         Correct,
         "registry: %llu compiles, %llu solves, %llu evictions (expected %u "
         "plan-cache compiles and nothing else)",
         static_cast<unsigned long long>(RS.Compiles),
         static_cast<unsigned long long>(RS.Solves),
         static_cast<unsigned long long>(RS.Evictions), NumModels);

  std::vector<double> Min, P10, P50, Tail, ExecOverSolo;
  for (unsigned M = 0; M < NumModels; ++M) {
    Min.push_back(F.OpenLat[M].percentile(0.0));
    P10.push_back(F.OpenLat[M].percentile(10.0));
    P50.push_back(F.OpenLat[M].median());
    Tail.push_back(F.OpenLat[M].tail());
    if (!ExecMs[M].empty())
      ExecOverSolo.push_back(median(ExecMs[M]) / S->Models[M]->Lat.median());
  }
  F.ExecOverSolo = ExecOverSolo.empty() ? 0.0 : geomean(ExecOverSolo);
  std::vector<Metric> E2E, Layer;
  pushClientMetrics(Min, P10, P50, Tail, F.ClosedRps, E2E, Layer);
  double PeakRss = peakRssMiB(); // before the checks allocate reference plans

  for (auto &D : S->Models) {
    checkModel(*S->Eng, *D, Correct);
    if (Opts.Trace)
      timeBars(*S->Eng, *D);
  }
  pushModelMetrics(*S, Opts, SetupSeconds, PeakRss, E2E, Layer);
  pushServeMetrics(&F, Layer);
  pushTraceMetrics(Layer);
  printModelTable(*S, Opts.Trace);
  for (unsigned M = 0; M < NumModels; ++M)
    std::fprintf(stderr,
                 "open loop %s: %zu requests at %.1f/s, min %.3f ms, p10 "
                 "%.3f ms, p50 %.3f ms, p%.1f %.3f ms from due time\n",
                 S->Models[M]->Name.c_str(), F.OpenLat[M].count(),
                 MixModels[M].RatePerSec, F.OpenLat[M].percentile(0.0),
                 F.OpenLat[M].percentile(10.0), F.OpenLat[M].median(),
                 LatencySet::tailPercentileFor(F.OpenLat[M].count()),
                 F.OpenLat[M].tail());
  std::fprintf(stderr,
               "closed loop: %.2f req/s; generator at most %.3f ms late; "
               "batch mean %.2f; peak queue %llu\n",
               F.ClosedRps, F.GenLateMaxMs, F.BatchMean,
               static_cast<unsigned long long>(F.PeakQueue));
  return finish(Opts, Correct, Attempted, Failed, std::move(E2E),
                std::move(Layer));
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"zoo-analytic",
                                                 "zoo-profiled", "serve-mix"};
  return Names;
}

WorkloadResult perfbench::runWorkload(const RunOptions &Opts) {
  if (Opts.Workload == "zoo-analytic")
    return runZoo(Opts, {"alexnet", "vgg-b", "googlenet", "resnet18",
                         "mobilenet"},
                  /*Profiled=*/false);
  if (Opts.Workload == "zoo-profiled")
    return runZoo(Opts, {"alexnet", "googlenet"}, /*Profiled=*/true);
  return runServeMix(Opts);
}
