//===- bench/SuiteThroughput.cpp - Parallel suite speedup -----------------===//
//
// Measures wall-clock for the full 14-program x 4-configuration matrix,
// serial vs parallel, and verifies the two runs render byte-identical
// Figure 5/6/7 tables. On a multi-core machine --jobs=N approaches Nx until
// the longest single cell (go, bison) dominates; on one core the speedup is
// ~1x but the identity check still holds.
//
//   suite_throughput [jobs]     # default: hardware concurrency
//
//===----------------------------------------------------------------------===//

#include "driver/SuiteRunner.h"
#include "support/CommandLine.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace rpcc;

namespace {

std::string renderAllTables(const std::vector<ProgramResults> &All) {
  std::string Out;
  for (Metric M : {Metric::TotalOps, Metric::Stores, Metric::Loads})
    Out += formatPaperTable(All, M);
  return Out;
}

double runOnce(unsigned Jobs, std::string &Tables) {
  SuiteOptions Opts;
  Opts.Jobs = Jobs;
  double T0 = timingNowMs();
  std::vector<ProgramResults> All = runSuite(benchProgramNames(), Opts);
  double Elapsed = timingNowMs() - T0;
  for (const ProgramResults &PR : All)
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P)
        if (!PR.R[A][P].Ok) {
          std::fprintf(stderr, "error: %s: %s\n", PR.Name.c_str(),
                       PR.R[A][P].Error.c_str());
          std::exit(1);
        }
  Tables = renderAllTables(All);
  return Elapsed;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = ThreadPool::defaultConcurrency();
  if (argc > 1) {
    if (!parseUnsigned(argv[1], Jobs) || Jobs == 0) {
      std::fprintf(stderr, "usage: suite_throughput [jobs>=1]\n");
      return 2;
    }
  }

  // Warm-up pass so file loading and allocator warmth don't bias the
  // serial leg.
  std::string Warm;
  runOnce(1, Warm);

  std::string SerialTables, ParallelTables;
  double SerialMs = runOnce(1, SerialTables);
  double ParallelMs = runOnce(Jobs, ParallelTables);

  if (SerialTables != ParallelTables) {
    std::fprintf(stderr,
                 "FAIL: parallel tables differ from serial tables\n");
    return 1;
  }

  std::printf("suite throughput (14 programs x 4 configs = 56 cells)\n");
  std::printf("  serial        %8.1f ms\n", SerialMs);
  std::printf("  --jobs=%-6u %8.1f ms\n", Jobs, ParallelMs);
  std::printf("  speedup       %8.2fx (hardware threads: %u)\n",
              ParallelMs > 0 ? SerialMs / ParallelMs : 0.0,
              ThreadPool::defaultConcurrency());
  std::printf("  tables        byte-identical\n");
  return 0;
}
