//===- bench/Fig7Loads.cpp - Paper Figure 7: loads executed ---------------===//

#include "SuiteTable.h"

int main(int argc, char **argv) {
  return rpcc::runSuiteTable(rpcc::Metric::Loads, "Figure 7: Loads",
                             argc, argv);
}
