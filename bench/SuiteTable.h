//===- bench/SuiteTable.h - Shared driver for Figures 5-7 ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef RPCC_BENCH_SUITETABLE_H
#define RPCC_BENCH_SUITETABLE_H

#include "driver/SuiteRunner.h"
#include "support/CommandLine.h"

#include <cstdio>

namespace rpcc {

/// Runs the 14-program suite through the paper's four configurations and
/// prints the requested metric as a Figure 5/6/7-style table. An optional
/// first argument names the worker-thread count (default 1, the historical
/// serial behavior); more fan the 56 cells across worker threads, and the
/// table is byte-identical either way.
inline int runSuiteTable(Metric Which, const char *Title, int argc,
                         char **argv) {
  unsigned Jobs = 1;
  if (argc > 1 && (!parseUnsigned(argv[1], Jobs) || Jobs == 0)) {
    std::fprintf(stderr, "usage: %s [jobs>=1]\n", argv[0]);
    return 2;
  }
  std::printf("%s\n", Title);
  std::printf("(14 MiniC programs standing in for the paper's Figure 4 "
              "suite; 16+16 allocatable registers)\n\n");
  SuiteOptions Opts;
  Opts.Jobs = Jobs;
  std::vector<ProgramResults> All = runSuite(benchProgramNames(), Opts);
  for (const ProgramResults &PR : All)
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P)
        if (!PR.R[A][P].Ok) {
          // Divergence and missing-baseline cells arrive pre-flagged.
          std::fprintf(stderr, "error: %s failed: %s\n", PR.Name.c_str(),
                       PR.R[A][P].Error.c_str());
          return 1;
        }
  std::string Table = formatPaperTable(All, Which);
  std::fputs(Table.c_str(), stdout);
  return 0;
}

} // namespace rpcc

#endif // RPCC_BENCH_SUITETABLE_H
