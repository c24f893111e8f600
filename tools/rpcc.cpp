//===- tools/rpcc.cpp - Command-line driver -------------------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
// Compiles a MiniC file through the paper's pipeline, optionally dumping
// the IL and/or executing the result in the counting interpreter.
//
//   rpcc prog.c --run                     # compile + execute, print counts
//   rpcc prog.c --no-promotion --run      # the paper's "without" column
//   rpcc prog.c --analysis=modref --dump-il=main
//   rpcc prog.c --registers=8 --classic-alloc --run
//   rpcc --suite --jobs=4                 # Figures 5-7 over the 14-program
//                                         # suite, four compile workers
//   rpcc prog.c --run --timing            # per-pass wall time + op counts
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "ir/IRPrinter.h"
#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "obs/TagProfile.h"
#include "obs/Trace.h"
#include "support/CommandLine.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace rpcc;

namespace {

void usage() {
  std::fputs(
      "usage: rpcc <file.c> [options]\n"
      "\n"
      "pipeline options:\n"
      "  --analysis=modref|pointer  interprocedural analysis (default: "
      "pointer)\n"
      "  --no-promotion             disable scalar register promotion\n"
      "  --pointer-promotion        enable section-3.3 pointer promotion\n"
      "  --no-opts                  disable VN/PRE/SCCP/LICM/DCE\n"
      "  --no-regalloc              keep virtual registers\n"
      "  --registers=K              allocatable registers per class "
      "(default 16)\n"
      "  --classic-alloc            1997-vintage allocator (no George "
      "coalescing,\n"
      "                             no rematerialization)\n"
      "  --store-only-if-modified   skip demotion stores for read-only "
      "loops\n"
      "  --max-promoted=N           cap promoted tags per loop\n"
      "\n"
      "output options:\n"
      "  --run                      execute and print exit code + output\n"
      "  --engine=switch|fastpath|jit\n"
      "                             interpreter engine (default: jit on\n"
      "                             x86-64 unix hosts, else fastpath, or\n"
      "                             switch in sanitizer builds); all\n"
      "                             produce identical counts and output\n"
      "  --counts                   print total/load/store counters "
      "(implies --run)\n"
      "  --stats                    print per-pass statistics\n"
      "  --dump-il[=func]           print final IL (whole module or one "
      "function)\n"
      "  --dump-cfg=func            print the function's CFG in Graphviz "
      "dot\n"
      "  --per-function             with --counts, break counters down by "
      "function\n"
      "  --timing                   per-pass wall time + IL op counts, to "
      "stderr\n"
      "  --timing-json[=FILE]       same report as a JSON object, to "
      "stderr or FILE\n"
      "\n"
      "observability options (all output on stderr or in files; stdout is\n"
      "never touched):\n"
      "  --remarks[=pass]           print optimization remarks to stderr,\n"
      "                             optionally only one pass (promote,\n"
      "                             ptr-promote, licm, pre, residual)\n"
      "  --remarks-json FILE        write the remark stream as JSON lines\n"
      "  --profile-tags             profile dynamic loads/stores per tag "
      "and\n"
      "                             loop; print the hot-tag table and the\n"
      "                             'promotion left on the table' report\n"
      "                             (implies --run)\n"
      "  --profile-json FILE        write the tag profile as JSON\n"
      "  --trace FILE               write a Chrome trace-event JSON file\n"
      "                             covering compile passes and suite "
      "cells\n"
      "  --metrics-json FILE        write the runtime metrics registry\n"
      "                             (counters/gauges/histograms) as JSON;\n"
      "                             name-sorted, rpjson 'metrics' schema\n"
      "  --metrics-prom FILE        same registry in Prometheus text\n"
      "                             exposition format (rpjson 'prom' lints "
      "it)\n"
      "  --heartbeat=SECS           print a one-line progress summary to\n"
      "                             stderr every SECS seconds (cells done,\n"
      "                             cache hit %%, worker utilization)\n"
      "\n"
      "suite mode (no input file):\n"
      "  --suite                    run the 14-program suite through the "
      "paper's\n"
      "                             four configurations; print Figures 5-7\n"
      "  --programs=a,b,...         restrict --suite to a subset of the "
      "suite\n"
      "  --jobs=N                   worker threads for --suite (default 1);\n"
      "                             stdout is identical for any N\n"
      "  --no-compile-cache         compile every suite cell from scratch\n"
      "                             instead of forking each program's shared\n"
      "                             frontend+analysis prefix; output is\n"
      "                             byte-identical either way (A/B check)\n"
      "  --sandbox                  run every suite cell in a forked child;\n"
      "                             a crashing/hanging/OOMing cell renders "
      "as\n"
      "                             CRASHED/TIMEOUT/OOM instead of killing\n"
      "                             the suite (exit codes 5/6/7)\n"
      "  --sandbox-wall=SECONDS     wall-clock deadline per sandboxed cell\n"
      "                             (default 30)\n"
      "  --sandbox-mem=MB           address-space cap per sandboxed cell\n"
      "                             (default: none)\n"
      "  --inject-cell-fault=SPEC   deliberately kill one sandboxed cell;\n"
      "                             SPEC = prog/analysis/promo:kind, e.g.\n"
      "                             tsp/modref/with:crash (crash|hang|oom)\n"
      "\n"
      "exit codes: 0 ok, 1 compile/runtime/cell error, 2 usage error,\n"
      "3 bad option value, 4 file I/O error, 5 crashed sandboxed cell,\n"
      "6 timed-out sandboxed cell, 7 OOM-killed sandboxed cell (worst\n"
      "severity wins: 5 > 7 > 6; see docs/ROBUSTNESS.md)\n",
      stderr);
}

bool readFile(const char *Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

// Exit codes: 0 success, 1 compile/runtime error, 2 usage error (unknown
// flag, missing input), 3 malformed option value, 4 unreadable input or
// unwritable output file, 5/6/7 a sandboxed suite cell crashed / timed out /
// was OOM-killed (ExitCode*Child in driver/JobRunner.h; crash outranks oom
// outranks timeout when several cells die differently).

/// Writes \p Content to \p Path; complains on stderr when that fails.
bool writeOutputFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Content;
  return true;
}

/// Observability flags, shared by single-file and suite mode.
struct ObsOptions {
  bool Remarks = false;        ///< human remark stream on stderr
  std::string RemarkPass;      ///< "" = all passes
  std::string RemarksJsonFile; ///< "" = off
  bool ProfileTags = false;    ///< hot-tag + explain reports on stderr
  std::string ProfileJsonFile; ///< "" = off
  std::string TraceFile;       ///< "" = off
  std::string MetricsJsonFile; ///< "" = off
  std::string MetricsPromFile; ///< "" = off
  unsigned HeartbeatSecs = 0;  ///< 0 = off

  bool wantRemarks() const { return Remarks || !RemarksJsonFile.empty(); }
  bool wantProfile() const {
    return ProfileTags || !ProfileJsonFile.empty();
  }
};

/// Timing destinations: human table and/or JSON, each to stderr; JSON may
/// go to a file instead.
struct TimingOptions {
  bool Human = false;
  bool Json = false;           ///< JSON on stderr
  std::string JsonFile;        ///< "" = off
  bool collect() const { return Human || Json || !JsonFile.empty(); }
};

/// Emits the collected timing report to its configured destinations.
/// Returns false when a file write failed. \p JobsJson, when non-empty, is
/// a JobLog rendering embedded as the JSON report's "jobs" array.
bool reportTiming(const TimingReport &T, const TimingOptions &Opts,
                  const std::string &JobsJson = std::string()) {
  if (Opts.Human)
    std::fputs(formatTimingReport(T).c_str(), stderr);
  if (Opts.Json)
    std::fputs(formatTimingJson(T, JobsJson).c_str(), stderr);
  if (!Opts.JsonFile.empty())
    return writeOutputFile(Opts.JsonFile, formatTimingJson(T, JobsJson));
  return true;
}

/// Sandbox-related command-line state, suite mode only.
struct SandboxCliOptions {
  bool Enabled = false;
  unsigned WallSeconds = 30;
  unsigned MemoryMB = 0;
  std::string InjectCellFault;
};

/// --suite: the paper's whole evaluation — 14 programs x 4 configurations —
/// with all three figure tables on stdout. Cell failures go to stderr and
/// turn into exit code 1; the tables still render, with the failing cells
/// marked, so partial runs stay inspectable. All observability output goes
/// to stderr or files, so stdout stays byte-identical no matter which
/// observability flags are set.
int runSuiteMode(unsigned Jobs, const TimingOptions &Timing,
                 const std::vector<std::string> &Programs,
                 const ObsOptions &Obs, InterpEngine Engine,
                 bool UseCaches, const SandboxCliOptions &SB) {
  double MetricsT0 = timingNowMs();
  Heartbeat HB(Obs.HeartbeatSecs, "rpcc");
  SuiteOptions Opts;
  Opts.Jobs = Jobs;
  Opts.UseCaches = UseCaches;
  Opts.Interp.Engine = Engine;
  Opts.CollectTiming = Timing.collect();
  Opts.Remarks = Obs.wantRemarks();
  Opts.RemarkPass = Obs.RemarkPass;
  Opts.ProfileTags = Obs.wantProfile();
  TraceCollector Trace;
  if (!Obs.TraceFile.empty())
    Opts.Trace = &Trace;
  JobLog Log;
  if (SB.Enabled) {
    Opts.Sandbox = true;
    Opts.Limits.WallSeconds = SB.WallSeconds;
    Opts.Limits.MemoryBytes = uint64_t(SB.MemoryMB) << 20;
    Opts.Log = &Log;
    Opts.InjectCellFault = SB.InjectCellFault;
  }

  std::vector<ProgramResults> All = runSuite(Programs, Opts);
  HB.stop(); // progress is done; quiesce before snapshots and exports

  bool AnyFailed = false;
  bool AnyCrash = false, AnyOom = false, AnyTimeout = false;
  for (const ProgramResults &PR : All)
    for (int A = 0; A != 2; ++A)
      for (int P = 0; P != 2; ++P) {
        const ConfigCounts &C = PR.R[A][P];
        AnyCrash |= C.Child == SandboxStatus::Crash;
        AnyOom |= C.Child == SandboxStatus::Oom;
        AnyTimeout |= C.Child == SandboxStatus::Timeout;
        if (!C.Ok) {
          AnyFailed = true;
          std::fprintf(stderr, "error: %s [%s]: %s\n", PR.Name.c_str(),
                       suiteCellName(A, P).c_str(), C.Error.c_str());
        }
      }

  struct {
    Metric Which;
    const char *Title;
  } Figures[] = {
      {Metric::TotalOps, "Figure 5: dynamic operations executed"},
      {Metric::Stores, "Figure 6: dynamic stores executed"},
      {Metric::Loads, "Figure 7: dynamic loads executed"},
  };
  for (const auto &Fig : Figures) {
    std::printf("%s\n\n", Fig.Title);
    std::fputs(formatPaperTable(All, Fig.Which).c_str(), stdout);
    std::printf("\n");
  }

  // Per-cell remark counts and the per-program hot-tag/explain reports from
  // the modref/with-promotion cell. Cells pre-render their payloads, so
  // everything below is a deterministic concatenation in matrix order,
  // byte-identical for any --jobs value.
  if (Obs.Remarks) {
    std::fputs("-- remarks per cell --\n", stderr);
    std::fputs(formatSuiteRemarkSummary(All).c_str(), stderr);
  }
  if (Obs.ProfileTags)
    for (const ProgramResults &PR : All) {
      const ConfigCounts &C = PR.R[0][1];
      if (C.HotTags.empty() && C.Explain.empty())
        continue;
      std::fprintf(stderr, "-- hot tags: %s (modref/with) --\n",
                   PR.Name.c_str());
      std::fputs(C.HotTags.c_str(), stderr);
      std::fprintf(stderr, "-- promotion left on the table: %s --\n",
                   PR.Name.c_str());
      std::fputs(C.Explain.c_str(), stderr);
    }

  bool WriteFailed = false;
  if (!Obs.RemarksJsonFile.empty()) {
    std::string JoinedRemarks;
    for (const ProgramResults &PR : All)
      for (int A = 0; A != 2; ++A)
        for (int P = 0; P != 2; ++P)
          JoinedRemarks += PR.R[A][P].RemarksJson;
    WriteFailed |= !writeOutputFile(Obs.RemarksJsonFile, JoinedRemarks);
  }
  if (!Obs.ProfileJsonFile.empty()) {
    // One profile object per program (JSON lines), from the profiled cell.
    std::string JoinedProfiles;
    for (const ProgramResults &PR : All)
      JoinedProfiles += PR.R[0][1].ProfileJson;
    WriteFailed |= !writeOutputFile(Obs.ProfileJsonFile, JoinedProfiles);
  }
  if (!Obs.TraceFile.empty())
    WriteFailed |= !writeOutputFile(Obs.TraceFile, Trace.toJson());

  std::vector<MetricSample> Samples = MetricsRegistry::global().snapshot();
  if (Opts.CollectTiming) {
    TimingReport Total;
    for (const ProgramResults &PR : All)
      Total.merge(PR.Timing);
    Total.PoolItems =
        static_cast<uint64_t>(metricsValue(Samples, "pool.items"));
    uint64_t ItemCount = 0, ItemUs = 0;
    metricsHistTotals(Samples, "pool.item_us", ItemCount, ItemUs);
    Total.PoolBusyMillis = static_cast<double>(ItemUs) / 1e3;
    WriteFailed |= !reportTiming(
        Total, Timing, SB.Enabled ? Log.toJsonArray() : std::string());
  }
  if (!Obs.MetricsJsonFile.empty())
    WriteFailed |= !writeOutputFile(
        Obs.MetricsJsonFile,
        metricsToJson(Samples, timingNowMs() - MetricsT0));
  if (!Obs.MetricsPromFile.empty())
    WriteFailed |=
        !writeOutputFile(Obs.MetricsPromFile, metricsToProm(Samples));
  if (WriteFailed)
    return 4;
  // A dead child is the most actionable verdict, so its severity outranks
  // the generic failure exit.
  if (int Severity = jobExitSeverity(AnyCrash, AnyOom, AnyTimeout))
    return Severity;
  return AnyFailed ? 1 : 0;
}

} // namespace

namespace {

/// Splits a comma-separated list, rejecting empty items.
bool splitList(const std::string &S, std::vector<std::string> &Out) {
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma == Pos)
      return false;
    Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return !Out.empty();
}

} // namespace

int main(int argc, char **argv) {
  const char *InputPath = nullptr;
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  bool Run = false, Counts = false, Stats = false, DumpIL = false;
  bool PerFunction = false;
  bool Suite = false;
  bool UseCaches = true;
  TimingOptions Timing;
  ObsOptions Obs;
  SandboxCliOptions SB;
  unsigned Jobs = 1;
  InterpEngine Engine = DefaultInterpEngine;
  std::string DumpFunc, DumpCfgFunc, ProgramsList;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];

    // Mandatory-value file flags, accepted as "--flag FILE" or
    // "--flag=FILE".
    struct {
      const char *Name;
      std::string *Dest;
    } FileFlags[] = {{"--remarks-json", &Obs.RemarksJsonFile},
                     {"--profile-json", &Obs.ProfileJsonFile},
                     {"--trace", &Obs.TraceFile},
                     {"--metrics-json", &Obs.MetricsJsonFile},
                     {"--metrics-prom", &Obs.MetricsPromFile}};
    int VF = 0;
    for (const auto &FF : FileFlags)
      if ((VF = matchValueFlag(argc, argv, I, FF.Name, *FF.Dest)) != 0) {
        if (VF < 0) {
          std::fprintf(stderr, "error: %s needs a file argument\n",
                       FF.Name);
          return 3;
        }
        break;
      }
    if (VF > 0)
      continue;

    if (std::strncmp(A, "--analysis=", 11) == 0) {
      if (std::strcmp(A + 11, "modref") == 0)
        Cfg.Analysis = AnalysisKind::ModRef;
      else if (std::strcmp(A + 11, "pointer") == 0)
        Cfg.Analysis = AnalysisKind::PointsTo;
      else {
        std::fprintf(stderr, "error: unknown analysis '%s'\n", A + 11);
        return 3;
      }
    } else if (std::strcmp(A, "--no-promotion") == 0) {
      Cfg.ScalarPromotion = false;
    } else if (std::strcmp(A, "--pointer-promotion") == 0) {
      Cfg.PointerPromotion = true;
    } else if (std::strcmp(A, "--no-opts") == 0) {
      Cfg.EnableOpts = false;
    } else if (std::strcmp(A, "--no-regalloc") == 0) {
      Cfg.RegisterAllocation = false;
    } else if (std::strncmp(A, "--registers=", 12) == 0) {
      if (!parseUnsigned(A + 12, Cfg.NumRegisters)) {
        std::fprintf(stderr, "error: bad --registers value '%s'\n", A + 12);
        return 3;
      }
      if (Cfg.NumRegisters < 4 || Cfg.NumRegisters > 1024) {
        std::fprintf(stderr,
                     "error: --registers must be between 4 and 1024\n");
        return 3;
      }
    } else if (std::strcmp(A, "--classic-alloc") == 0) {
      Cfg.ClassicAllocator = true;
    } else if (std::strcmp(A, "--store-only-if-modified") == 0) {
      Cfg.Promo.StoreOnlyIfModified = true;
    } else if (std::strncmp(A, "--max-promoted=", 15) == 0) {
      if (!parseUnsigned(A + 15, Cfg.Promo.MaxPromotedPerLoop)) {
        std::fprintf(stderr, "error: bad --max-promoted value '%s'\n",
                     A + 15);
        return 3;
      }
    } else if (std::strncmp(A, "--engine=", 9) == 0) {
      if (!parseInterpEngine(A + 9, Engine)) {
        std::fprintf(stderr, "error: bad --engine value '%s' (expected "
                             "switch, fastpath, or jit)\n",
                     A + 9);
        return 3;
      }
      if (Engine == InterpEngine::Jit && !jitSupported()) {
        std::fprintf(stderr,
                     "error: --engine=jit is not supported on this "
                     "host/build (requires x86-64 unix, non-sanitizer)\n");
        return 3;
      }
    } else if (std::strcmp(A, "--run") == 0) {
      Run = true;
    } else if (std::strcmp(A, "--counts") == 0) {
      Run = Counts = true;
    } else if (std::strcmp(A, "--stats") == 0) {
      Stats = true;
    } else if (std::strcmp(A, "--dump-il") == 0) {
      DumpIL = true;
    } else if (std::strncmp(A, "--dump-il=", 10) == 0) {
      DumpIL = true;
      DumpFunc = A + 10;
    } else if (std::strncmp(A, "--dump-cfg=", 11) == 0) {
      DumpCfgFunc = A + 11;
    } else if (std::strcmp(A, "--per-function") == 0) {
      PerFunction = true;
    } else if (std::strcmp(A, "--suite") == 0) {
      Suite = true;
    } else if (std::strcmp(A, "--no-compile-cache") == 0) {
      UseCaches = false;
    } else if (std::strcmp(A, "--sandbox") == 0) {
      SB.Enabled = true;
    } else if (std::strncmp(A, "--sandbox-wall=", 15) == 0) {
      if (!parseUnsigned(A + 15, SB.WallSeconds) || SB.WallSeconds == 0) {
        std::fprintf(stderr, "error: bad --sandbox-wall value '%s'\n",
                     A + 15);
        return 3;
      }
    } else if (std::strncmp(A, "--heartbeat=", 12) == 0) {
      if (!parseUnsigned(A + 12, Obs.HeartbeatSecs) ||
          Obs.HeartbeatSecs == 0) {
        std::fprintf(stderr, "error: bad --heartbeat value '%s'\n", A + 12);
        return 3;
      }
    } else if (std::strncmp(A, "--sandbox-mem=", 14) == 0) {
      if (!parseUnsigned(A + 14, SB.MemoryMB) || SB.MemoryMB == 0) {
        std::fprintf(stderr, "error: bad --sandbox-mem value '%s'\n",
                     A + 14);
        return 3;
      }
    } else if (std::strncmp(A, "--inject-cell-fault=", 20) == 0) {
      SB.InjectCellFault = A + 20;
      size_t Colon = SB.InjectCellFault.rfind(':');
      WorkerFault F;
      if (Colon == std::string::npos ||
          !parseWorkerFault(SB.InjectCellFault.substr(Colon + 1), F)) {
        std::fprintf(stderr,
                     "error: bad --inject-cell-fault spec '%s' (expected "
                     "prog/analysis/promo:crash|hang|oom)\n",
                     A + 20);
        return 3;
      }
    } else if (std::strncmp(A, "--jobs=", 7) == 0) {
      if (!parseUnsigned(A + 7, Jobs) || Jobs == 0 || Jobs > 1024) {
        std::fprintf(stderr, "error: bad --jobs value '%s'\n", A + 7);
        return 3;
      }
    } else if (std::strcmp(A, "--timing") == 0) {
      Timing.Human = true;
    } else if (std::strcmp(A, "--timing-json") == 0) {
      Timing.Json = true;
    } else if (std::strncmp(A, "--timing-json=", 14) == 0) {
      Timing.JsonFile = A + 14;
      if (Timing.JsonFile.empty()) {
        std::fprintf(stderr, "error: --timing-json= needs a file\n");
        return 3;
      }
    } else if (std::strcmp(A, "--remarks") == 0) {
      Obs.Remarks = true;
    } else if (std::strncmp(A, "--remarks=", 10) == 0) {
      Obs.Remarks = true;
      Obs.RemarkPass = A + 10;
      if (Obs.RemarkPass.empty()) {
        std::fprintf(stderr, "error: --remarks= needs a pass name\n");
        return 3;
      }
    } else if (std::strcmp(A, "--profile-tags") == 0) {
      Obs.ProfileTags = true;
    } else if (std::strncmp(A, "--programs=", 11) == 0) {
      ProgramsList = A + 11;
      if (ProgramsList.empty()) {
        std::fprintf(stderr, "error: --programs= needs a list\n");
        return 3;
      }
    } else if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      usage();
      return 0;
    } else if (A[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", A);
      usage();
      return 2;
    } else if (!InputPath) {
      InputPath = A;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return 2;
    }
  }

  if (Suite) {
    if (InputPath) {
      std::fprintf(stderr, "error: --suite does not take an input file\n");
      return 2;
    }
    std::vector<std::string> Programs = benchProgramNames();
    if (!ProgramsList.empty()) {
      Programs.clear();
      if (!splitList(ProgramsList, Programs)) {
        std::fprintf(stderr, "error: bad --programs list '%s'\n",
                     ProgramsList.c_str());
        return 3;
      }
      for (const std::string &P : Programs) {
        bool Known = false;
        for (const std::string &N : benchProgramNames())
          Known |= N == P;
        if (!Known) {
          std::fprintf(stderr, "error: unknown suite program '%s'\n",
                       P.c_str());
          return 3;
        }
      }
    }
    if (!SB.InjectCellFault.empty() && !SB.Enabled) {
      std::fprintf(stderr,
                   "error: --inject-cell-fault requires --sandbox\n");
      return 2;
    }
    return runSuiteMode(Jobs, Timing, Programs, Obs, Engine,
                        UseCaches, SB);
  }
  if (!ProgramsList.empty()) {
    std::fprintf(stderr, "error: --programs only applies to --suite\n");
    return 2;
  }
  if (SB.Enabled || !SB.InjectCellFault.empty()) {
    std::fprintf(stderr, "error: --sandbox only applies to --suite\n");
    return 2;
  }

  if (!InputPath) {
    usage();
    return 2;
  }
  std::string Source;
  if (!readFile(InputPath, Source)) {
    std::fprintf(stderr, "error: cannot open %s\n", InputPath);
    return 4;
  }

  // --profile-tags needs an execution to profile.
  if (Obs.wantProfile())
    Run = true;

  // Metrics lifecycle for the single-file path: the heartbeat (if any)
  // starts before compilation and its destructor quiesces it on every
  // return; FlushMetrics stops it explicitly and writes the exports on the
  // main exits. Error paths that already return 4 on a failed write skip
  // the export — the same filesystem would fail it anyway.
  double MetricsT0 = timingNowMs();
  Heartbeat HB(Obs.HeartbeatSecs, "rpcc");
  auto FlushMetrics = [&]() -> bool {
    HB.stop();
    if (Obs.MetricsJsonFile.empty() && Obs.MetricsPromFile.empty())
      return true;
    std::vector<MetricSample> S = MetricsRegistry::global().snapshot();
    bool Ok = true;
    if (!Obs.MetricsJsonFile.empty())
      Ok &= writeOutputFile(Obs.MetricsJsonFile,
                            metricsToJson(S, timingNowMs() - MetricsT0));
    if (!Obs.MetricsPromFile.empty())
      Ok &= writeOutputFile(Obs.MetricsPromFile, metricsToProm(S));
    return Ok;
  };

  RemarkEngine Remarks;
  if (Obs.wantRemarks() || Obs.wantProfile())
    Cfg.Remarks = &Remarks;
  TraceCollector Trace;
  if (!Obs.TraceFile.empty()) {
    Cfg.Trace = &Trace;
    Cfg.TraceLabel = InputPath;
  }

  Cfg.CollectTiming = Timing.collect();
  CompileOutput Out = compileProgram(Source, Cfg);
  if (!Out.Ok) {
    std::fprintf(stderr, "%s: compile error:\n%s", InputPath,
                 Out.Errors.c_str());
    if (!Obs.TraceFile.empty())
      writeOutputFile(Obs.TraceFile, Trace.toJson());
    FlushMetrics();
    return 1;
  }

  // Remarks are complete once compilation (including the residual audit)
  // finishes; flush them before any execution output.
  if (Obs.Remarks)
    std::fputs(Remarks.toText(Obs.RemarkPass).c_str(), stderr);
  if (!Obs.RemarksJsonFile.empty() &&
      !writeOutputFile(Obs.RemarksJsonFile, Remarks.toJsonLines()))
    return 4;

  if (Stats) {
    const CompileStats &S = Out.Stats;
    std::printf("strengthen: %u loads->scalar, %u stores->scalar, %u "
                "loads->const\n",
                S.Strengthen.LoadsToScalar, S.Strengthen.StoresToScalar,
                S.Strengthen.LoadsToConst);
    std::printf("promotion:  %u tags, %u refs rewritten, %u pad loads, %u "
                "exit stores\n",
                S.Promo.PromotedTags, S.Promo.RewrittenOps,
                S.Promo.LoadsInserted, S.Promo.StoresInserted);
    if (Cfg.PointerPromotion)
      std::printf("ptr-promo:  %u groups, %u refs rewritten\n",
                  S.PtrPromo.PromotedRefs, S.PtrPromo.RewrittenOps);
    std::printf("vn:         %u folded, %u reused, %u loads forwarded, %u "
                "dead stores\n",
                S.Vn.Folded, S.Vn.Reused, S.Vn.LoadsForwarded,
                S.Vn.DeadStores);
    std::printf("pre:        %u exprs, %u loads eliminated\n",
                S.Pre.ExprsEliminated, S.Pre.LoadsEliminated);
    std::printf("sccp:       %u folded, %u branches resolved\n",
                S.Sccp.Folded, S.Sccp.BranchesResolved);
    std::printf("licm:       %u pure, %u loads hoisted\n",
                S.Licm.HoistedPure, S.Licm.HoistedLoads);
    std::printf("dce:        %u removed\n", S.DceRemoved);
    std::printf("regalloc:   %u coalesced, %u spilled, %u rematerialized, "
                "%u colors\n",
                S.RegAlloc.CoalescedCopies, S.RegAlloc.SpilledRegs,
                S.RegAlloc.RematerializedRegs, S.RegAlloc.ColorsUsed);
  }

  if (DumpIL) {
    if (DumpFunc.empty()) {
      std::fputs(printModule(*Out.M).c_str(), stdout);
    } else {
      FuncId F = Out.M->lookup(DumpFunc);
      if (F == NoFunc) {
        std::fprintf(stderr, "error: no function '%s'\n", DumpFunc.c_str());
        return 1;
      }
      std::fputs(printFunction(*Out.M, *Out.M->function(F)).c_str(), stdout);
    }
  }

  if (!DumpCfgFunc.empty()) {
    FuncId F = Out.M->lookup(DumpCfgFunc);
    if (F == NoFunc) {
      std::fprintf(stderr, "error: no function '%s'\n", DumpCfgFunc.c_str());
      return 1;
    }
    std::fputs(printCfgDot(*Out.M, *Out.M->function(F)).c_str(), stdout);
  }

  if (Run) {
    ProfileMeta Meta;
    InterpOptions IOpts;
    IOpts.Engine = Engine;
    IOpts.JitCodeCache = UseCaches;
    if (Obs.wantProfile()) {
      Meta = ProfileMeta::build(*Out.M);
      IOpts.Profile = &Meta;
    }
    double T0 = Cfg.CollectTiming ? timingNowMs() : 0;
    ExecResult R = interpret(*Out.M, IOpts);
    if (Cfg.CollectTiming) {
      Out.Timing.InterpMillis = timingNowMs() - T0;
      Out.Timing.InterpSteps = R.Counters.Total;
      Out.Timing.Engine = interpEngineName(IOpts.Engine);
      if (!reportTiming(Out.Timing, Timing))
        return 4;
    }
    if (!Obs.TraceFile.empty() &&
        !writeOutputFile(Obs.TraceFile, Trace.toJson()))
      return 4;
    if (!R.Ok) {
      std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
      FlushMetrics();
      return 1;
    }
    if (Obs.ProfileTags) {
      std::fputs("-- hot tags --\n", stderr);
      std::fputs(formatHotTagTable(*Out.M, Meta, R.Profile).c_str(),
                 stderr);
      std::fputs("-- promotion left on the table --\n", stderr);
      std::fputs(formatExplainReport(
                     buildExplainReport(*Out.M, Meta, R.Profile, Remarks))
                     .c_str(),
                 stderr);
    }
    if (!Obs.ProfileJsonFile.empty() &&
        !writeOutputFile(Obs.ProfileJsonFile,
                         profileToJson(*Out.M, Meta, R.Profile)))
      return 4;
    if (!R.Output.empty())
      std::fputs(R.Output.c_str(), stdout);
    if (Counts) {
      std::printf("\n-- counters --\n");
      std::printf("total ops: %s\n", withCommas(R.Counters.Total).c_str());
      std::printf("loads:     %s\n", withCommas(R.Counters.Loads).c_str());
      std::printf("stores:    %s\n", withCommas(R.Counters.Stores).c_str());
      if (PerFunction) {
        std::printf("\n-- per function --\n");
        for (size_t FI = 0; FI != R.PerFunction.size(); ++FI) {
          const FunctionCounters &FC = R.PerFunction[FI];
          if (FC.Total == 0)
            continue;
          std::printf("%-20s total %-12s loads %-10s stores %s\n",
                      Out.M->function(static_cast<FuncId>(FI))->name().c_str(),
                      withCommas(FC.Total).c_str(),
                      withCommas(FC.Loads).c_str(),
                      withCommas(FC.Stores).c_str());
        }
      }
    }
    if (!FlushMetrics())
      return 4;
    return static_cast<int>(R.ExitCode & 0xFF);
  }
  if (Cfg.CollectTiming && !reportTiming(Out.Timing, Timing))
    return 4;
  if (!Obs.TraceFile.empty() &&
      !writeOutputFile(Obs.TraceFile, Trace.toJson()))
    return 4;
  if (!FlushMetrics())
    return 4;
  return 0;
}
