//===- fuzz/Campaign.h - Parallel differential fuzz campaigns --*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seed loop behind `rpfuzz`: generate a deterministic program per seed,
/// run the diff / widen / corrupt oracles, and render a verdict log. Seeds
/// are embarrassingly parallel — every oracle run builds its own modules —
/// so the campaign fans seeds across CampaignOptions::Jobs workers while
/// still emitting the log in strict seed order: the log (and the failure
/// count) is byte-identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_FUZZ_CAMPAIGN_H
#define RPCC_FUZZ_CAMPAIGN_H

#include "driver/JobRunner.h"
#include "fuzz/DifferentialOracle.h"
#include "interp/Interpreter.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rpcc {

class TraceCollector;

struct CampaignOptions {
  uint64_t Seed0 = 1;
  uint64_t Runs = 100;
  bool Quick = false; ///< quickMatrix() instead of fullMatrix()
  bool DoDiff = true;
  bool DoWiden = true;
  bool DoCorrupt = true;
  /// Worker threads across seeds; 1 = serial. Seeds are checked in blocks
  /// and reported in seed order, so the log does not depend on Jobs.
  unsigned Jobs = 1;
  /// Seeds between "N/M seeds" progress lines (0 disables them).
  uint64_t ProgressInterval = 100;
  /// How many failing programs to print in full.
  uint64_t MaxPrintedPrograms = 3;
  /// When non-null, every seed adds a span (category "seed", track = the
  /// worker that checked it) to this shared collector.
  TraceCollector *Trace = nullptr;
  /// Interpreter engine for every oracle execution. Campaigns pinned to
  /// each engine must produce identical verdict logs.
  // Not jit: compile-bound (300 seeds: jit 14.5-16.2 s, fastpath 13.3-15.2).
  InterpEngine Engine = DefaultInterpretedEngine;
  /// Share the compiled pipeline prefix (an ArtifactCache) across one
  /// seed's oracle runs (the diff matrix alone compiles each program dozens
  /// of times), and the jit's native code across runs. Verdict logs are
  /// byte-identical with the caches on or off; `--no-compile-cache` turns
  /// both off for A/B runs. The corrupt oracle never uses the cache —
  /// it must corrupt freshly lowered, un-normalized IL.
  bool UseCaches = true;
  /// Check every seed in a forked sandbox (driver/JobRunner): a crashing,
  /// hanging, or OOMing seed becomes a classified FAIL line and the
  /// campaign continues. Healthy seeds produce byte-identical logs either
  /// way.
  bool Sandbox = false;
  /// Resource caps for sandboxed seed checks.
  SandboxLimits Limits;
  /// Deliberately crash/hang/OOM a deterministic subset of sandboxed
  /// workers (`rpfuzz --inject-worker-faults`): seeds ≡ 3, 9, 15 (mod 20)
  /// crash, hang, and OOM respectively. End-to-end proof that the
  /// classifier and the fail-soft paths work; requires Sandbox.
  bool InjectWorkerFaults = false;
  /// When non-empty, every failing seed's generated program is written to
  /// `<ReproducerDir>/seed-<N>.c` (the directory is created if needed).
  std::string ReproducerDir;
  /// When non-null, every sandboxed seed appends a JobRecord here
  /// (rendered into `--timing-json` as the "jobs" array).
  JobLog *Log = nullptr;
};

struct CampaignResult {
  /// Failing seeds.
  uint64_t Failures = 0;
  /// Abnormal-child breakdown (each also counts in Failures). Nonzero only
  /// with CampaignOptions::Sandbox; drives the process exit severity
  /// (jobExitSeverity: crash > oom > timeout).
  uint64_t Crashed = 0, TimedOut = 0, OomKilled = 0;
  /// Promotion pairs failing the corpus-level load check. A corpus
  /// property, not a verdict on any one seed, so not part of Failures.
  uint64_t CorpusFailures = 0;
  /// The full verdict log: FAIL lines, failing programs, progress lines,
  /// the corpus-level promotion check, and the summary line. Byte-identical
  /// for equal options regardless of CampaignOptions::Jobs.
  std::string Log;
};

/// Runs the campaign. When \p Live is non-null, log text is also streamed
/// there (block by block, in seed order) as the campaign progresses.
CampaignResult runCampaign(const CampaignOptions &Opts,
                           std::FILE *Live = nullptr);

/// Fewest programs the corpus-level load check judges. One program may
/// legitimately load more with promotion (landing pads, spills); only a sum
/// over many programs says anything about promotion itself. Equal to the
/// default campaign size, so a default `rpfuzz` run still checks.
inline constexpr uint64_t MinLoadCheckCorpus = 100;

struct CorpusLoadVerdict {
  /// promotionPairs() pairs whose with-promotion cell ran more loads.
  uint64_t Failures = 0;
  /// One "FAIL corpus load counts" line per failing pair, or a one-line
  /// note when the corpus is too small to judge.
  std::string Log;
};

/// The corpus-level promotion check: summed over the corpus, promotion must
/// not add loads (see promotionPairs). \p LoadTotals holds each matrix
/// cell's dynamic loads summed over \p Programs programs.
CorpusLoadVerdict checkCorpusLoads(const std::vector<FuzzConfig> &Matrix,
                                   const std::vector<uint64_t> &LoadTotals,
                                   uint64_t Programs);

} // namespace rpcc

#endif // RPCC_FUZZ_CAMPAIGN_H
