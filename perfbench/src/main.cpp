//===- main.cpp - The benchmark's command line ----------------------------===//
//
// Part of primsel's benchmark (perfbench/). See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Prints progress and per-model tables on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\nworkloads:",
               Why);
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parseUnsigned(const char *Text, unsigned long long &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return *Text && *End == '\0' && Text[0] != '-';
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Val = Argv[++I];
    unsigned long long N = 0;
    if (Arg == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed" && parseUnsigned(Val, N)) {
      Opts.Seed = N;
    } else if (Arg == "--seconds" && parseUnsigned(Val, N) && N >= 1 &&
               N <= 3600) {
      Opts.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace" && (!std::strcmp(Val, "0") ||
                                    !std::strcmp(Val, "1"))) {
      Opts.Trace = Val[0] == '1';
    } else if (Arg == "--trace-out") {
      Opts.TraceOut = Val;
    } else {
      return usage(("bad option " + Arg + " " + Val).c_str());
    }
  }
  bool Known = false;
  for (const std::string &W : workloadNames())
    Known |= W == Opts.Workload;
  if (!HaveWorkload || !Known)
    return usage("unknown or missing --workload");

  WorkloadResult R = runWorkload(Opts);
  std::printf("%s\n",
              resultJson(R.Correct, R.Attempted, R.Failed, R.Metrics).c_str());
  return 0;
}
