//===- bench/Provenance.h - Provenance and spread of BENCH files -*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every committed BENCH_*.json records beside its numbers: the build
/// type, the source commit and the host's core count, and for each row the
/// spread of its timed runs. `rpjson bench` requires both. The including
/// target defines RPCC_BUILD_TYPE and RPCC_SOURCE_DIR (bench/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_BENCH_PROVENANCE_H
#define RPCC_BENCH_PROVENANCE_H

#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace rpcc {

/// Minimum, median and maximum of a row's timed runs. The minimum is the
/// figure the speedups use: on a shared machine every perturbation only
/// adds time.
struct RunSpread {
  double MinMs = 0, MedianMs = 0, MaxMs = 0;
  unsigned Runs = 0;
};

inline RunSpread spreadOf(std::vector<double> Times) {
  RunSpread S;
  if (Times.empty())
    return S;
  std::sort(Times.begin(), Times.end());
  size_t N = Times.size();
  S.MinMs = Times.front();
  S.MaxMs = Times.back();
  S.MedianMs = N % 2 ? Times[N / 2] : (Times[N / 2 - 1] + Times[N / 2]) / 2;
  S.Runs = static_cast<unsigned>(N);
  return S;
}

/// The row fields of \p S: ,"wall_ms":min,"median_ms":..,"max_ms":..,"runs":..
inline std::string spreadJson(const RunSpread &S) {
  return ",\"wall_ms\":" + fixed(S.MinMs, 3) + ",\"median_ms\":" +
         fixed(S.MedianMs, 3) + ",\"max_ms\":" + fixed(S.MaxMs, 3) +
         ",\"runs\":" + std::to_string(S.Runs);
}

/// `git describe --always --dirty` of the source tree, or "unknown".
inline std::string sourceCommit() {
  std::string Out;
  if (FILE *P = popen("git -C \"" RPCC_SOURCE_DIR
                      "\" describe --always --dirty 2>/dev/null",
                      "r")) {
    char Buf[128];
    while (std::fgets(Buf, sizeof(Buf), P))
      Out += Buf;
    if (pclose(P) != 0)
      Out.clear();
  }
  while (!Out.empty() && (Out.back() == '\n' || Out.back() == '\r'))
    Out.pop_back();
  return Out.empty() ? "unknown" : Out;
}

/// The header fields: ,"build_type":..,"commit":..,"nproc":..
inline std::string provenanceJson() {
  return ",\"build_type\":\"" + jsonEscape(RPCC_BUILD_TYPE) +
         "\",\"commit\":\"" + jsonEscape(sourceCommit()) + "\",\"nproc\":" +
         std::to_string(std::max(1u, std::thread::hardware_concurrency()));
}

} // namespace rpcc

#endif // RPCC_BENCH_PROVENANCE_H
