//===- bench/Fig6Stores.cpp - Paper Figure 6: stores executed -------------===//

#include "SuiteTable.h"

int main(int argc, char **argv) {
  return rpcc::runSuiteTable(rpcc::Metric::Stores, "Figure 6: Stores",
                             argc, argv);
}
