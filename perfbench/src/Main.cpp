//===- perfbench/src/Main.cpp - rpcc benchmark program --------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   rpcc_perfbench --workload suite|fuzz|served_warm --seed N --seconds S
///                  --trace 0|1 --root DIR [--commit C]
///   rpcc_perfbench --make-expected --root DIR
///   rpcc_perfbench --setup-probe WORKLOAD --root DIR
///
/// Prints run metadata (and, traced, the per-layer table) to stderr and, as
/// the last line of stdout, one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. Untraced runs report the end-to-end metrics,
/// traced runs the per-layer ones. perfbench/run.py builds this binary and
/// is the entry point; see perfbench/NOTES.md.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// Every per-layer metric of BENCHMARK.json, in table order, with its unit.
/// A workload that does not touch a layer reports 0 for it. The `fuzz`
/// workload, which BENCHMARK.json does not list, prints its own fuzz.* rows
/// in the stderr table only.
const std::pair<const char *, const char *> LayerMetrics[] = {
    {"interp.ms", "ms"},
    {"interp.steps", "count"},
    {"interp.msteps_per_s", "Msteps/s"},
    {"jit.compile_ms", "ms"},
    {"regalloc.ms", "ms"},
    {"regalloc.rounds", "count"},
    {"regalloc.spilled_regs", "count"},
    {"regalloc.coalesced_copies", "count"},
    {"opt.ms", "ms"},
    {"opt.pre.ms", "ms"},
    {"opt.vn.ms", "ms"},
    {"opt.sccp.ms", "ms"},
    {"opt.licm.ms", "ms"},
    {"promote.ms", "ms"},
    {"promote.tags", "count"},
    {"promote.rewritten_ops", "count"},
    {"ir.verify_ms", "ms"},
    {"driver.suffix_ms", "ms"},
    {"driver.suffix_calls", "count"},
    {"driver.cache_hits", "count"},
    {"driver.cache_misses", "count"},
    {"frontend.ms", "ms"},
    {"frontend.calls", "count"},
    {"alias.ms", "ms"},
    {"alias.calls", "count"},
    {"served.handler_ms", "ms"},
    {"served.transport_ms", "ms"},
    {"served.cache_hits", "count"},
    {"served.cache_misses", "count"},
    {"served.p99_ms", "ms"},
    {"served.p99_samples_beyond", "count"},
    {"trace.overhead", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: rpcc_perfbench --workload suite|fuzz|served_warm "
               "--seed N --seconds S --trace 0|1 --root DIR [--commit C]\n"
               "       rpcc_perfbench --make-expected --root DIR\n");
  return 2;
}

void metric(std::string &J, bool &First, const std::string &Name, double V,
            const char *Unit) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  J += First ? "" : ", ";
  J += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
       "\"}";
  First = false;
}

/// Time rows that contain other rows, or are part of one: they get a share
/// but do not compete for "largest layer".
bool isNestedTimeRow(const std::string &Name) {
  if (Name == "driver.suffix_ms" || Name == "served.handler_ms" ||
      Name == "fuzz.diff_ms")
    return true;
  return Name.rfind("opt.", 0) == 0 && Name != "opt.ms";
}

void printLayerTable(const Report &R, double OpMs) {
  std::fprintf(stderr, "perfbench: per-layer breakdown (mean per op)\n");
  std::fprintf(stderr, "  %-28s %14s %-9s %s\n", "metric", "value", "unit",
               "share of op");
  std::fprintf(stderr, "  %-28s %14.4f %-9s\n", "op.ms", OpMs, "ms");
  const LayerRow *Largest = nullptr;
  for (const LayerRow &L : R.Layers) {
    if (L.Name == "op.ms")
      continue;
    bool IsTime = L.Unit == "ms" && L.Name != "served.p99_ms";
    if (!IsTime || OpMs <= 0) {
      std::fprintf(stderr, "  %-28s %14.4f %-9s\n", L.Name.c_str(), L.Value,
                   L.Unit.c_str());
      continue;
    }
    bool Nested = isNestedTimeRow(L.Name);
    std::fprintf(stderr, "  %-28s %14.4f %-9s %5.1f%%%s\n", L.Name.c_str(),
                 L.Value, L.Unit.c_str(), 100.0 * L.Value / OpMs,
                 Nested ? "  (nested)" : "");
    if (!Nested && (!Largest || L.Value > Largest->Value))
      Largest = &L;
  }
  if (Largest)
    std::fprintf(stderr, "perfbench: largest layer: %s (%.1f%% of op time)\n",
                 Largest->Name.c_str(), 100.0 * Largest->Value / OpMs);
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  std::string Commit = "unknown", Probe;
  bool MakeExpected = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--make-expected") {
      MakeExpected = true;
      continue;
    }
    if (!(V = Next()))
      return usage();
    if (Arg == "--workload")
      A.Workload = V;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(V);
    else if (Arg == "--trace") {
      A.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = true;
    } else if (Arg == "--root")
      A.Root = V;
    else if (Arg == "--commit")
      Commit = V;
    else if (Arg == "--setup-probe")
      Probe = V;
    else
      return usage();
  }
  if (A.Root.empty())
    return usage();
  if (MakeExpected)
    return makeExpected(A.Root);
  if (!Probe.empty()) {
    double Ready = Probe == "suite"         ? setupSuite(A.Root)
                   : Probe == "fuzz"        ? setupFuzz(A.Root)
                   : Probe == "served_warm" ? setupServedWarm(A.Root)
                                            : -1;
    if (Ready < 0)
      return 1;
    std::printf("ready %.6f\n", Ready);
    return 0;
  }
  if (!HaveTrace || A.Seconds <= 0 ||
      (A.Workload != "suite" && A.Workload != "fuzz" &&
       A.Workload != "served_warm"))
    return usage();

  std::string BuildType = PERFBENCH_BUILD_TYPE;
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d "
               "commit=%s build=%s nproc=%u\n",
               A.Workload.c_str(), A.Seed, A.Seconds, A.Trace ? 1 : 0,
               Commit.c_str(), BuildType.c_str(),
               std::thread::hardware_concurrency());
  if (BuildType != "Release")
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release; "
                         "timings are not comparable\n",
                 BuildType.c_str());
  double ProbeStart = probeLoopMs();
  double Ticks0 = 0, Steal0 = stealTicks(Ticks0);

  Report R = A.Workload == "suite"  ? runSuite(A)
             : A.Workload == "fuzz" ? runFuzz(A)
                                    : runServedWarm(A);

  double Ticks1 = 0, Steal1 = stealTicks(Ticks1);
  double ProbeEnd = probeLoopMs();
  std::fprintf(stderr,
               "perfbench: engine=%s ops=%zu attempted=%" PRIu64
               " failed=%" PRIu64 " probe_ms start=%.3f end=%.3f "
               "steal=%.2f%%\n",
               R.Engine.c_str(), R.OpMs.size(), R.Attempted, R.Failed,
               ProbeStart, ProbeEnd,
               Ticks1 > Ticks0 ? 100 * (Steal1 - Steal0) / (Ticks1 - Ticks0)
                               : 0.0);

  std::string J = "{\"correct\": ";
  J += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(R.Attempted);
  J += ", \"failed\": " + std::to_string(R.Failed);
  J += ", \"metrics\": {";
  bool First = true;
  if (!A.Trace) {
    metric(J, First, "setup_s", median(R.SetupSamples), "s");
    metric(J, First, "ops_per_s", R.OpsPerSec, "op/s");
    metric(J, First, "op_p50_ms", R.OpP50Ms, "ms");
    metric(J, First, "ok_ratio",
           R.Attempted ? double(R.Attempted - R.Failed) / double(R.Attempted)
                       : 0,
           "ratio");
    metric(J, First, "peak_rss_mb", std::max(peakRssMb(), R.ChildRssMb),
           "MB");
    metric(J, First, "dyn_ops", R.DynOps, "count");
    metric(J, First, "dyn_loads", R.DynLoads, "count");
    metric(J, First, "dyn_stores", R.DynStores, "count");
    metric(J, First, "code_ops", R.CodeOps, "count");
  } else {
    double OpMs = 0;
    for (const LayerRow &L : R.Layers)
      if (L.Name == "op.ms")
        OpMs = L.Value;
    printLayerTable(R, OpMs);
    for (const auto &[Name, Unit] : LayerMetrics) {
      double V = 0;
      for (const LayerRow &L : R.Layers)
        if (L.Name == Name)
          V = L.Value;
      metric(J, First, Name, V, Unit);
    }
  }
  J += "}}";
  std::fflush(stderr);
  std::printf("%s\n", J.c_str());
  return 0;
}
