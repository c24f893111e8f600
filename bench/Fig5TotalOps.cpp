//===- bench/Fig5TotalOps.cpp - Paper Figure 5: total operations ----------===//
//
// Regenerates the paper's Figure 5: dynamic total-operation counts for the
// benchmark suite, without and with scalar register promotion, under
// MOD/REF and points-to analysis.
//
//===----------------------------------------------------------------------===//

#include "SuiteTable.h"

int main(int argc, char **argv) {
  return rpcc::runSuiteTable(rpcc::Metric::TotalOps,
                             "Figure 5: Total Operations", argc, argv);
}
