//===- perfbench/src/Suite.cpp - The paper's experiment as a workload -----===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `suite`: one op is runAllConfigs for one program (its four cells) on the
/// default engine, jobs=1. The run is a sequence of passes over the 14
/// programs, each pass in a freshly forked child of a parent that never
/// compiles or interprets anything itself, so every pass starts from the
/// state a fresh `rpcc --suite` process sees: empty compile cache, empty
/// process-wide JIT code cache. Program order within a pass is drawn from
/// the workload seed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/SuiteRunner.h"
#include "support/Json.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace rpcc;

namespace perfbench {
namespace {

/// What one pass child reports back.
struct PassResult {
  struct Op {
    size_t Prog = 0;
    double Ms = 0;
    bool Ok = false;
    uint64_t DynOps = 0, DynLoads = 0, DynStores = 0; ///< with-promotion
  };
  std::vector<Op> Ops;
  TimingReport Timing;     ///< traced passes only
  double JitCompileUs = 0; ///< registry delta over the pass
  double RssMb = 0;
  bool Complete = false;
};

/// Checks one program's four cells against the committed expectations and
/// reports each mismatch; returns true when all match.
bool checkProgram(const ProgramResults &PR, const ProgramExpect &E,
                  size_t Pass, std::string &Why) {
  std::ostringstream OS;
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P) {
      const ConfigCounts &C = PR.R[A][P];
      std::string Where = "suite pass " + std::to_string(Pass) + " program " +
                          E.Name + " cell " + suiteCellName(A, P) + ": ";
      if (!C.Ok || C.Diverged || C.BaselineFailed) {
        OS << Where << "cell failed: " << C.Error << "\n";
        continue;
      }
      if (C.ExitCode != E.Exit)
        OS << Where << "exit code " << C.ExitCode << " != expected " << E.Exit
           << "\n";
      if (C.Output != E.Stdout)
        OS << Where << "stdout \"" << jsonEscape(C.Output)
           << "\" != expected \"" << jsonEscape(E.Stdout) << "\"\n";
      if (P == 1) {
        const CellExpect &W = E.With[A];
        if (C.Total != W.Ops || C.Loads != W.Loads || C.Stores != W.Stores)
          OS << Where << "dynamic ops/loads/stores " << C.Total << "/"
             << C.Loads << "/" << C.Stores << " != expected " << W.Ops << "/"
             << W.Loads << "/" << W.Stores << "\n";
      }
    }
  Why = OS.str();
  return Why.empty();
}

/// Body of one pass child: runs every program once in seed-drawn order and
/// writes a line-oriented report to \p Fd.
void runPassChild(int Fd, const RunArgs &A, size_t Pass,
                  const NamedSources &Progs,
                  const std::vector<ProgramExpect> &Expect, bool Traced) {
  std::vector<size_t> Order(Progs.size());
  std::iota(Order.begin(), Order.end(), 0);
  uint64_t Rng = mix64(A.Seed * 1000003 + Pass);
  for (size_t I = Order.size(); I > 1; --I) {
    Rng = mix64(Rng);
    std::swap(Order[I - 1], Order[Rng % I]);
  }
  SuiteOptions Opts;
  Opts.Jobs = 1;
  Opts.CollectTiming = Traced;
  RegistryReading R0 = RegistryReading::now();
  TimingReport Agg;
  std::string Out;
  char Line[256];
  for (size_t Idx : Order) {
    double T0 = nowMs();
    ProgramResults PR = runAllConfigs(Progs[Idx].first, Progs[Idx].second,
                                      Opts);
    double Ms = nowMs() - T0;
    std::string Why;
    bool Ok = checkProgram(PR, Expect[Idx], Pass, Why);
    if (!Ok) {
      for (char &C : Why)
        if (C == '\n')
          C = '\x1f';
      Out += "fail " + Why + "\n";
    }
    uint64_t DO = 0, DL = 0, DS = 0;
    for (int An = 0; An != 2; ++An) {
      DO += PR.R[An][1].Total;
      DL += PR.R[An][1].Loads;
      DS += PR.R[An][1].Stores;
    }
    std::snprintf(Line, sizeof(Line),
                  "op %zu %.6f %d %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                  Idx, Ms, Ok ? 1 : 0, DO, DL, DS);
    Out += Line;
    if (Traced)
      Agg.merge(PR.Timing);
  }
  RegistryReading D = RegistryReading::now() - R0;
  std::snprintf(Line, sizeof(Line), "jit_us %.3f\n", D.JitCompileUs);
  Out += Line;
  if (Traced) {
    std::snprintf(Line, sizeof(Line),
                  "timing %.6f %" PRIu64 " %.6f %.6f %" PRIu64 " %" PRIu64
                  " %" PRIu64 "\n",
                  Agg.InterpMillis, Agg.InterpSteps, Agg.FrontendMillis,
                  Agg.SuffixMillis, Agg.Compiles, Agg.CacheHits,
                  Agg.CacheMisses);
    Out += Line;
    for (const PassTime &P : Agg.Passes) {
      std::snprintf(Line, sizeof(Line), "pass %s %.6f %" PRIu64 "\n",
                    P.Name.c_str(), P.Millis, P.Invocations);
      Out += Line;
    }
    if (!Agg.Engine.empty())
      Out += "engine " + Agg.Engine + "\n";
  }
  std::snprintf(Line, sizeof(Line), "rss_mb %.6f\ndone\n", peakRssMb());
  Out += Line;
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = write(Fd, Out.data() + Off, Out.size() - Off);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
}

PassResult parsePassReport(const std::string &Text, std::string &EngineOut) {
  PassResult P;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "op") {
      PassResult::Op O;
      int Ok = 0;
      LS >> O.Prog >> O.Ms >> Ok >> O.DynOps >> O.DynLoads >> O.DynStores;
      O.Ok = Ok == 1;
      P.Ops.push_back(O);
    } else if (Tag == "fail") {
      std::string Why = Line.substr(5);
      std::replace(Why.begin(), Why.end(), '\x1f', '\n');
      while (!Why.empty() && Why.back() == '\n')
        Why.pop_back();
      std::fprintf(stderr, "perfbench: FAILED %s\n", Why.c_str());
    } else if (Tag == "jit_us") {
      LS >> P.JitCompileUs;
    } else if (Tag == "timing") {
      TimingReport &T = P.Timing;
      LS >> T.InterpMillis >> T.InterpSteps >> T.FrontendMillis >>
          T.SuffixMillis >> T.Compiles >> T.CacheHits >> T.CacheMisses;
    } else if (Tag == "pass") {
      PassTime PT;
      LS >> PT.Name >> PT.Millis >> PT.Invocations;
      P.Timing.Passes.push_back(PT);
    } else if (Tag == "engine") {
      LS >> EngineOut;
    } else if (Tag == "rss_mb") {
      LS >> P.RssMb;
    } else if (Tag == "done") {
      P.Complete = true;
    }
  }
  return P;
}

/// Forks one pass child and collects its report.
PassResult runPass(const RunArgs &A, size_t Pass, const NamedSources &Progs,
                   const std::vector<ProgramExpect> &Expect, bool Traced,
                   std::string &Engine) {
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return {};
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Pipe[0]);
    runPassChild(Pipe[1], A, Pass, Progs, Expect, Traced);
    std::fflush(nullptr);
    _exit(0);
  }
  close(Pipe[1]);
  std::string Text;
  char Buf[4096];
  ssize_t N;
  while (Pid > 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Text.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  if (Pid > 0)
    waitpid(Pid, &Status, 0);
  PassResult P = parsePassReport(Text, Engine);
  if (Pid <= 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    P.Complete = false;
  return P;
}

} // namespace

double setupSuite(const std::string &Root) {
  std::vector<ProgramExpect> Expect;
  if (loadSuitePrograms(Root).empty() || !loadSuiteExpect(Root, Expect))
    return -1;
  return nowMs();
}

Report runSuite(const RunArgs &A) {
  Report R;
  auto Progs = loadSuitePrograms(A.Root);
  std::vector<ProgramExpect> Expect;
  if (Progs.empty() || !loadSuiteExpect(A.Root, Expect)) {
    R.fail("suite: cannot load programs or expected outputs");
    return R;
  }
  R.Engine = interpEngineName(DefaultInterpEngine);

  // Traced runs spend the first half untraced, for trace.overhead.
  std::vector<double> PassMs[2];
  std::vector<size_t> ProgCount(Progs.size(), 0);
  std::vector<std::vector<double>> ProgMs(Progs.size());
  TimingReport TracedTiming;
  double TracedJitUs = 0, TracedOpMs = 0;
  size_t TracedOps = 0;
  uint64_t Dyn[3] = {0, 0, 0};
  bool HaveDyn = false;
  double Start = nowMs();
  double Budget = A.Seconds * 1e3;
  for (size_t Pass = 0;; ++Pass) {
    double Elapsed = nowMs() - Start;
    if (Elapsed >= Budget && Pass >= 2)
      break;
    bool Traced = A.Trace && Elapsed >= Budget / 2;
    std::string Engine;
    PassResult P = runPass(A, Pass, Progs, Expect, Traced, Engine);
    if (!P.Complete) {
      R.Attempted += Progs.size();
      R.fail("suite pass " + std::to_string(Pass) +
             ": child did not complete (all 14 programs counted failed)");
      R.Failed += Progs.size() - 1;
      continue;
    }
    uint64_t PassDyn[3] = {0, 0, 0};
    double Sum = 0;
    for (const PassResult::Op &O : P.Ops) {
      ++R.Attempted;
      if (!O.Ok)
        ++R.Failed;
      R.OpMs.push_back(O.Ms);
      Sum += O.Ms;
      PassDyn[0] += O.DynOps;
      PassDyn[1] += O.DynLoads;
      PassDyn[2] += O.DynStores;
      if (!Traced) {
        ProgMs[O.Prog].push_back(O.Ms);
      } else {
        ++ProgCount[O.Prog];
        ++TracedOps;
        TracedOpMs += O.Ms;
      }
    }
    PassMs[Traced].push_back(Sum);
    sampleSetup(A, R);
    R.ChildRssMb = std::max(R.ChildRssMb, P.RssMb);
    if (!HaveDyn) {
      std::copy(PassDyn, PassDyn + 3, Dyn);
      HaveDyn = true;
    }
    if (Traced) {
      TracedTiming.merge(P.Timing);
      TracedJitUs += P.JitCompileUs;
      if (!Engine.empty())
        R.Engine = Engine;
    }
  }
  double N = double(Progs.size());
  // Throughput from the median pass; latency as the median over programs
  // of each program's median op. The op distribution is a mixture of 14
  // programs of very different cost, and its plain median would sit in the
  // gap between two of them, set by their extreme samples.
  R.OpsPerSec = N / (median(PassMs[0]) / 1e3);
  std::vector<double> ProgMedians;
  for (const std::vector<double> &V : ProgMs)
    ProgMedians.push_back(median(V));
  R.OpP50Ms = median(ProgMedians);
  R.DynOps = double(Dyn[0]);
  R.DynLoads = double(Dyn[1]);
  R.DynStores = double(Dyn[2]);

  // Static code size and per-compile counts come from the same cells
  // compiled once more through the public stage functions, after the timed
  // phase (SuiteRunner does not return the compiled modules).
  std::vector<StageCounts> PerProg(Progs.size());
  uint64_t CodeOps = 0, ExpectCodeOps = 0;
  for (size_t I = 0; I != Progs.size(); ++I) {
    FrontendArtifact FA = runFrontend(Progs[I].second);
    for (int An = 0; An != 2; ++An) {
      AnalysisKind K = An ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
      AnalyzedModule AM = analyzeFrontend(FA, K);
      for (int P = 0; P != 2; ++P) {
        CompilerConfig Cfg;
        Cfg.Analysis = K;
        Cfg.ScalarPromotion = P == 1;
        CompileOutput CO = compileSuffix(AM, Cfg);
        if (!CO.Ok) {
          R.fail("suite program " + Progs[I].first + " cell " +
                 suiteCellName(An, P) + ": recompile failed: " + CO.Errors);
          continue;
        }
        PerProg[I].add(CO.Stats);
        if (P == 1) {
          CodeOps += countStaticOps(*CO.M);
          ExpectCodeOps += Expect[I].With[An].StaticOps;
        }
      }
    }
  }
  R.CodeOps = double(CodeOps);
  if (CodeOps != ExpectCodeOps)
    R.fail("suite code_ops " + std::to_string(CodeOps) + " != expected " +
           std::to_string(ExpectCodeOps));

  if (A.Trace && TracedOps) {
    StageCounts C;
    for (size_t I = 0; I != Progs.size(); ++I)
      C.addScaled(PerProg[I], double(ProgCount[I]));
    RegistryReading D;
    D.JitCompileUs = TracedJitUs;
    R.layer("op.ms", TracedOpMs / double(TracedOps), "ms");
    addPipelineLayers(R, TracedTiming, D, C, double(TracedOps));
    double Traced = N / (median(PassMs[1]) / 1e3);
    R.layer("trace.overhead", Traced / R.OpsPerSec, "ratio");
  }
  return R;
}

} // namespace perfbench
