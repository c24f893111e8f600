//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the three workloads share: run arguments, the per-run report
/// (ops attempted/failed, per-op latencies, metrics, the traced per-layer
/// table), order statistics, the process-wide metrics-registry readers, and
/// the layer breakdown derived from rpcc's own TimingReport.
///
/// The benchmark measures rpcc from outside: it times calls into public
/// functions and reads the CompilerConfig::CollectTiming pass report and the
/// MetricsRegistry that already exist. Nothing here is compiled into rpcc.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "driver/Compiler.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root; ///< checkout root: bench/programs, perfbench/expected
};

/// One traced per-layer row: a metric name, its value and its unit.
struct LayerRow {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Latency of every op in the timed phase, in completion order.
  std::vector<double> OpMs;
  /// Throughput and typical latency, as each workload defines its robust
  /// statistic over the timed phase (see perfbench/NOTES.md).
  double OpsPerSec = 0;
  double OpP50Ms = 0;
  /// Set-up times (s); setup_s is their median. Workloads take them
  /// between blocks of the timed phase, so they sample its host phases too.
  std::vector<double> SetupSamples;
  /// Output-quality counts (dyn_ops, dyn_loads, dyn_stores, code_ops).
  double DynOps = 0, DynLoads = 0, DynStores = 0, CodeOps = 0;
  /// Per-layer rows of a traced run, in print order.
  std::vector<LayerRow> Layers;
  std::string Engine;
  /// Peak resident set of the workload's own child processes, MB.
  double ChildRssMb = 0;

  /// Records one failed check: bumps Failed and prints \p What (which must
  /// name the op's input) to stderr.
  void fail(const std::string &What);
  void layer(const std::string &Name, double Value, const std::string &Unit);
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile (numpy's default, type 7) of \p V at
/// \p Q in [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Median over consecutive whole blocks of \p Block ops of the block's
/// throughput (ops/s). A slow host phase shorter than half the run moves a
/// minority of blocks and so leaves the median where it was.
double blockRate(const std::vector<double> &OpMs, size_t Block);

/// Highest percentile p (among 99, 95, 90, 50) such that at least ten
/// samples lie beyond it; reports the value and the count beyond.
struct TailStat {
  double Percentile = 0, Value = 0;
  uint64_t Beyond = 0;
};
TailStat tailStat(const std::vector<double> &V);

//===----------------------------------------------------------------------===//
// Environment
//===----------------------------------------------------------------------===//

double nowMs();
/// Peak resident set (VmHWM) of this process, MB.
double peakRssMb();
/// Times a fixed bench-owned probe loop (ms); a slow reading marks a slow
/// host phase. Metadata only, never a metric.
double probeLoopMs();
/// The host's steal ticks so far, from /proc/stat, with all ticks in
/// \p Total: the CPU time the hypervisor gave to other guests.
double stealTicks(double &Total);

std::string readFile(const std::string &Path);
/// (name, source) pairs.
using NamedSources = std::vector<std::pair<std::string, std::string>>;
/// Sources of the 14 suite programs, in benchProgramNames() order.
NamedSources loadSuitePrograms(const std::string &Root);

/// splitmix64 step, for deterministic seed-derived choices.
uint64_t mix64(uint64_t X);

//===----------------------------------------------------------------------===//
// Expected outputs (perfbench/expected/suite.json)
//===----------------------------------------------------------------------===//

/// Per (program, analysis) with-promotion cell.
struct CellExpect {
  uint64_t Ops = 0, Loads = 0, Stores = 0;
  uint64_t StaticOps = 0, PromotedTags = 0;
};
struct ProgramExpect {
  std::string Name;
  int64_t Exit = 0;
  std::string Stdout;
  CellExpect With[2]; ///< [0] = modref, [1] = points-to
};
/// Loads the committed expectations; returns false (and prints why) when
/// the file is missing or malformed.
bool loadSuiteExpect(const std::string &Root,
                     std::vector<ProgramExpect> &Out);

/// Regenerates expected/suite.json from the reference pipeline and prints
/// it to stdout (`--make-expected`).
int makeExpected(const std::string &Root);

//===----------------------------------------------------------------------===//
// Metrics registry and pass-report readers
//===----------------------------------------------------------------------===//

/// The MetricsRegistry::global() values the layers need, each summed over
/// its label sets: the `jit.compile_us` histogram's sum and the
/// `served.cache_{hits,misses,bypass}` counters.
struct RegistryReading {
  double JitCompileUs = 0;
  double ServedHits = 0, ServedMisses = 0, ServedBypass = 0;
  static RegistryReading now();
  RegistryReading operator-(const RegistryReading &O) const;
  RegistryReading operator+(const RegistryReading &O) const;
};

/// Per-pass and stage counts a compile produced (from CompileOutput::Stats)
/// that the timing report does not carry.
struct StageCounts {
  double RegallocRounds = 0, SpilledRegs = 0, CoalescedCopies = 0;
  double PromotedTags = 0, RewrittenOps = 0;
  void add(const rpcc::CompileStats &S);
  /// Adds \p K times \p O (an op mix weighting per-input counts).
  void addScaled(const StageCounts &O, double K);
};

/// Appends the shared per-layer rows (interp, jit, regalloc, opt, promote,
/// ir, driver, frontend, alias) derived from \p T — an aggregate TimingReport
/// over \p Ops ops — plus registry deltas and stage counts, each as a mean
/// per op.
void addPipelineLayers(Report &R, const rpcc::TimingReport &T,
                       const RegistryReading &Delta, const StageCounts &C,
                       double Ops);

//===----------------------------------------------------------------------===//
// Set-up measurement
//===----------------------------------------------------------------------===//

/// Spawns this executable in `--setup-probe <workload>` mode and records in
/// Report::SetupSamples the seconds from spawn until the child reported it
/// was ready for its first op: process start plus the workload's set-up.
void sampleSetup(const RunArgs &A, Report &R);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Report runSuite(const RunArgs &A);
Report runFuzz(const RunArgs &A);
Report runServedWarm(const RunArgs &A);

/// The set-up a fresh process pays before the first op of each workload.
/// Each returns the nowMs() at which the process was ready, or -1 when
/// set-up failed.
double setupSuite(const std::string &Root);
double setupFuzz(const std::string &Root);
double setupServedWarm(const std::string &Root);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
