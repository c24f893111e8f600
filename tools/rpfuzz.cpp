//===- tools/rpfuzz.cpp - Differential fuzzing driver ---------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
// Generates deterministic random MiniC programs and cross-checks the
// pipeline three ways per seed:
//
//   diff     every matrix configuration must produce identical behavior
//   widen    conservatively degraded alias analysis must preserve behavior
//   corrupt  structurally broken IL must be rejected by the verifier
//
//   rpfuzz --runs=500 --seed=1                # full matrix, all modes
//   rpfuzz --runs=500 --jobs=8                # same verdicts, 8 workers
//   rpfuzz --runs=200 --matrix=quick          # smoke configuration
//   rpfuzz --emit=42                          # print seed 42's program
//   rpfuzz --reduce=crash.c --predicate=diverge
//
// The seed loop itself lives in src/fuzz/Campaign.{h,cpp}; the campaign log
// is byte-identical for any --jobs value.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Reducer.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace rpcc;

namespace {

void usage() {
  std::fputs(
      "usage: rpfuzz [options]\n"
      "\n"
      "fuzzing:\n"
      "  --runs=N            seeds to try (default 100)\n"
      "  --seed=S            first seed (default 1)\n"
      "  --jobs=N            worker threads across seeds (default 1);\n"
      "                      verdict output is identical for any N\n"
      "  --matrix=full|quick differential matrix size (default full)\n"
      "  --mode=all|diff|widen|corrupt\n"
      "                      which oracles to run per seed (default all)\n"
      "  --engine=switch|fastpath|jit\n"
      "                      interpreter engine for every oracle run\n"
      "                      (default: fastpath, or switch in sanitizer\n"
      "                      builds; not jit, whose compile cost outweighs\n"
      "                      its speed on short fuzz runs); jit needs an\n"
      "                      x86-64 unix host and a non-sanitizer build\n"
      "  --emit=S            print the program for seed S and exit\n"
      "  --no-compile-cache  compile every oracle cell from scratch instead\n"
      "                      of sharing each seed's frontend+analysis\n"
      "                      prefix; verdicts are identical either way\n"
      "  --trace=FILE        write a Chrome trace-event JSON file with one\n"
      "                      span per seed (track = worker thread)\n"
      "  --metrics-json=FILE write the runtime metrics registry (seeds,\n"
      "                      fail classes, pool/cache/job health) as JSON\n"
      "  --metrics-prom=FILE same registry in Prometheus text exposition\n"
      "                      format\n"
      "  --heartbeat=S       print a one-line progress summary (seeds/sec,\n"
      "                      cache hit %%, busy workers) to stderr every S\n"
      "                      seconds\n"
      "\n"
      "sandboxing (fail-soft seed checking):\n"
      "  --sandbox           check every seed in a forked child; a crashing,\n"
      "                      hanging, or OOMing seed becomes a classified\n"
      "                      FAIL line and the campaign continues\n"
      "  --sandbox-wall=S    wall-clock deadline per seed, seconds "
      "(default 30)\n"
      "  --sandbox-mem=MB    address-space cap per seed (default: none)\n"
      "  --inject-worker-faults\n"
      "                      deliberately crash/hang/OOM seeds = 3/9/15 mod "
      "20\n"
      "                      (classifier proof; requires --sandbox)\n"
      "  --reproducer-dir=DIR\n"
      "                      write each failing seed's program to\n"
      "                      DIR/seed-<N>.c\n"
      "\n"
      "exit codes: 0 clean, 1 failing seed(s), 2 usage error, 3 bad option\n"
      "value, 4 file I/O error, 5 crashed worker, 6 timed-out worker,\n"
      "7 OOM-killed worker (worst severity wins: 5 > 7 > 6)\n"
      "\n"
      "reduction:\n"
      "  --reduce=FILE       shrink FILE with delta debugging\n"
      "  --predicate=diverge|error|substr:TEXT\n"
      "                      failure to preserve while shrinking\n"
      "                      (default diverge, on the quick matrix)\n",
      stderr);
}

InterpOptions fuzzInterpOptions(InterpEngine Engine) {
  InterpOptions IO;
  IO.Engine = Engine;
  IO.MaxSteps = uint64_t(1) << 26;
  return IO;
}

int emitSeed(uint64_t Seed) {
  std::fputs(generateProgram(Seed).c_str(), stdout);
  return 0;
}

FailurePredicate makePredicate(const std::string &Spec, InterpEngine Engine) {
  InterpOptions IO = fuzzInterpOptions(Engine);
  if (Spec == "diverge") {
    // Only a source whose reference cell (the oracle's baseline, cell 0)
    // compiles and runs cleanly can diverge from it; counting a broken
    // reference would let ddmin collapse the program, as for "error".
    std::vector<FuzzConfig> Matrix = quickMatrix();
    return [Matrix, IO](const std::string &Src) {
      OracleResult R = checkProgram(Src, Matrix, IO);
      return !R.Ok && R.FailingConfig != Matrix.front().name();
    };
  }
  if (Spec == "error") {
    // Compiles cleanly but faults at runtime. Counting compile errors as
    // failures would let ddmin collapse the program to garbage, since almost
    // any random subset of lines fails to parse.
    return [IO](const std::string &Src) {
      CompilerConfig Cfg;
      Cfg.Analysis = AnalysisKind::PointsTo;
      CompileOutput Out = compileProgram(Src, Cfg);
      if (!Out.Ok)
        return false;
      return !interpret(*Out.M, IO).Ok;
    };
  }
  if (Spec.rfind("substr:", 0) == 0) {
    std::string Needle = Spec.substr(7);
    return [Needle, IO](const std::string &Src) {
      CompilerConfig Cfg;
      Cfg.Analysis = AnalysisKind::PointsTo;
      CompileOutput Out = compileProgram(Src, Cfg);
      if (!Out.Ok)
        return Out.Errors.find(Needle) != std::string::npos;
      ExecResult R = interpret(*Out.M, IO);
      return R.Output.find(Needle) != std::string::npos ||
             R.Error.find(Needle) != std::string::npos;
    };
  }
  return nullptr;
}

int runReduce(const char *Path, const std::string &PredicateSpec,
              InterpEngine Engine) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path);
    return 4;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  FailurePredicate Pred = makePredicate(PredicateSpec, Engine);
  if (!Pred) {
    std::fprintf(stderr, "error: bad predicate '%s'\n",
                 PredicateSpec.c_str());
    return 3;
  }
  ReduceStats Stats;
  std::string Reduced = reduceProgram(SS.str(), Pred, &Stats);
  if (Stats.FinalLines == Stats.InitialLines && Stats.PredicateRuns == 1) {
    std::fprintf(stderr,
                 "error: input does not satisfy predicate '%s'; nothing to "
                 "reduce\n",
                 PredicateSpec.c_str());
    return 1;
  }
  std::fprintf(stderr, "rpfuzz: reduced %zu -> %zu lines in %u runs\n",
               Stats.InitialLines, Stats.FinalLines, Stats.PredicateRuns);
  std::fputs(Reduced.c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  CampaignOptions Campaign;
  std::string Mode = "all";
  const char *ReducePath = nullptr;
  std::string PredicateSpec = "diverge";
  bool EmitOnly = false;
  uint64_t EmitSeedVal = 0;
  uint64_t Jobs = 1;
  std::string TraceFile;
  std::string MetricsJsonFile, MetricsPromFile;
  uint64_t HeartbeatSecs = 0;
  // Not jit: compile-bound (300 seeds: jit 14.5-16.2 s, fastpath 13.3-15.2).
  InterpEngine Engine = DefaultInterpretedEngine;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strncmp(A, "--runs=", 7) == 0) {
      if (!parseUnsigned(A + 7, Campaign.Runs) || Campaign.Runs == 0) {
        std::fprintf(stderr, "error: bad --runs value '%s'\n", A + 7);
        return 3;
      }
    } else if (std::strncmp(A, "--seed=", 7) == 0) {
      if (!parseUnsigned(A + 7, Campaign.Seed0)) {
        std::fprintf(stderr, "error: bad --seed value '%s'\n", A + 7);
        return 3;
      }
    } else if (std::strncmp(A, "--jobs=", 7) == 0) {
      if (!parseUnsigned(A + 7, Jobs) || Jobs == 0 || Jobs > 1024) {
        std::fprintf(stderr, "error: bad --jobs value '%s'\n", A + 7);
        return 3;
      }
    } else if (std::strncmp(A, "--matrix=", 9) == 0) {
      if (std::strcmp(A + 9, "quick") == 0)
        Campaign.Quick = true;
      else if (std::strcmp(A + 9, "full") == 0)
        Campaign.Quick = false;
      else {
        std::fprintf(stderr, "error: bad --matrix value '%s'\n", A + 9);
        return 3;
      }
    } else if (std::strncmp(A, "--mode=", 7) == 0) {
      Mode = A + 7;
      if (Mode != "all" && Mode != "diff" && Mode != "widen" &&
          Mode != "corrupt") {
        std::fprintf(stderr, "error: bad --mode value '%s'\n", Mode.c_str());
        return 3;
      }
    } else if (std::strcmp(A, "--no-compile-cache") == 0) {
      Campaign.UseCaches = false;
    } else if (std::strcmp(A, "--sandbox") == 0) {
      Campaign.Sandbox = true;
    } else if (std::strncmp(A, "--sandbox-wall=", 15) == 0) {
      uint64_t S = 0;
      if (!parseUnsigned(A + 15, S) || S == 0) {
        std::fprintf(stderr, "error: bad --sandbox-wall value '%s'\n",
                     A + 15);
        return 3;
      }
      Campaign.Limits.WallSeconds = static_cast<double>(S);
    } else if (std::strncmp(A, "--sandbox-mem=", 14) == 0) {
      uint64_t MB = 0;
      if (!parseUnsigned(A + 14, MB) || MB == 0) {
        std::fprintf(stderr, "error: bad --sandbox-mem value '%s'\n",
                     A + 14);
        return 3;
      }
      Campaign.Limits.MemoryBytes = MB << 20;
    } else if (std::strcmp(A, "--inject-worker-faults") == 0) {
      Campaign.InjectWorkerFaults = true;
    } else if (std::strncmp(A, "--reproducer-dir=", 17) == 0) {
      Campaign.ReproducerDir = A + 17;
      if (Campaign.ReproducerDir.empty()) {
        std::fprintf(stderr, "error: --reproducer-dir= needs a path\n");
        return 3;
      }
    } else if (std::strncmp(A, "--emit=", 7) == 0) {
      if (!parseUnsigned(A + 7, EmitSeedVal)) {
        std::fprintf(stderr, "error: bad --emit value '%s'\n", A + 7);
        return 3;
      }
      EmitOnly = true;
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
    } else if (std::strncmp(A, "--trace=", 8) == 0) {
      TraceFile = A + 8;
      if (TraceFile.empty()) {
        std::fprintf(stderr, "error: --trace= needs a file\n");
        return 3;
      }
    } else if (std::strncmp(A, "--metrics-json=", 15) == 0) {
      MetricsJsonFile = A + 15;
      if (MetricsJsonFile.empty()) {
        std::fprintf(stderr, "error: --metrics-json= needs a file\n");
        return 3;
      }
    } else if (std::strncmp(A, "--metrics-prom=", 15) == 0) {
      MetricsPromFile = A + 15;
      if (MetricsPromFile.empty()) {
        std::fprintf(stderr, "error: --metrics-prom= needs a file\n");
        return 3;
      }
    } else if (std::strncmp(A, "--heartbeat=", 12) == 0) {
      if (!parseUnsigned(A + 12, HeartbeatSecs) || HeartbeatSecs == 0 ||
          HeartbeatSecs > 0xFFFFFFFFu) {
        std::fprintf(stderr, "error: bad --heartbeat value '%s'\n", A + 12);
        return 3;
      }
    } else if (std::strncmp(A, "--reduce=", 9) == 0) {
      ReducePath = A + 9;
    } else if (std::strncmp(A, "--predicate=", 12) == 0) {
      PredicateSpec = A + 12;
    } else if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", A);
      usage();
      return 2;
    }
  }

  if (EmitOnly)
    return emitSeed(EmitSeedVal);
  if (ReducePath)
    return runReduce(ReducePath, PredicateSpec, Engine);
  if (Campaign.InjectWorkerFaults && !Campaign.Sandbox) {
    std::fprintf(stderr,
                 "error: --inject-worker-faults requires --sandbox\n");
    return 2;
  }

  Campaign.Jobs = static_cast<unsigned>(Jobs);
  Campaign.Engine = Engine;
  Campaign.DoDiff = Mode == "all" || Mode == "diff";
  Campaign.DoWiden = Mode == "all" || Mode == "widen";
  Campaign.DoCorrupt = Mode == "all" || Mode == "corrupt";
  TraceCollector Trace;
  if (!TraceFile.empty())
    Campaign.Trace = &Trace;
  uint64_t MetricsT0 = metricsNowUs();
  CampaignResult R;
  {
    // Scoped so the heartbeat thread quiesces before any export snapshot.
    Heartbeat HB(static_cast<unsigned>(HeartbeatSecs), "rpfuzz");
    R = runCampaign(Campaign, stderr);
  }
  if (!TraceFile.empty()) {
    std::ofstream Out(TraceFile, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", TraceFile.c_str());
      return 4;
    }
    Out << Trace.toJson();
  }
  if (!MetricsJsonFile.empty() || !MetricsPromFile.empty()) {
    std::vector<MetricSample> Samples = MetricsRegistry::global().snapshot();
    struct {
      const std::string *Path;
      std::string Body;
    } Exports[] = {
        {&MetricsJsonFile,
         metricsToJson(Samples, static_cast<double>(metricsNowUs() -
                                                    MetricsT0) /
                                    1e3)},
        {&MetricsPromFile, metricsToProm(Samples)}};
    for (const auto &E : Exports) {
      if (E.Path->empty())
        continue;
      std::ofstream Out(*E.Path, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "error: cannot write %s\n", E.Path->c_str());
        return 4;
      }
      Out << E.Body;
    }
  }
  // A dead worker is the most actionable verdict: its severity outranks the
  // generic failing-seed exit. 5 crash > 7 oom > 6 timeout, then 1.
  if (int Severity =
          jobExitSeverity(R.Crashed != 0, R.OomKilled != 0, R.TimedOut != 0))
    return Severity;
  return R.Failures || R.CorpusFailures ? 1 : 0;
}
