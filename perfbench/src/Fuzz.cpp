//===- perfbench/src/Fuzz.cpp - rpfuzz's default campaign as a workload ---===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `fuzz`: one op is one seed through runCampaign with rpfuzz's defaults —
/// the full 52-config diff matrix plus the widen and corrupt oracles,
/// jobs=1. Seeds are consecutive from the workload seed and never repeat
/// within a run. Every seed must be clean.
///
/// Traced ops additionally time generateProgram and replay the diff matrix
/// through the public stage functions with CollectTiming, which is where
/// the per-pass layers come from.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fuzz/Campaign.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/ProgramGenerator.h"
#include "obs/Remark.h"

#include <cstdio>
#include <sstream>

using namespace rpcc;

namespace perfbench {
namespace {

/// The campaign's interpreter settings (fuzz/Campaign.cpp): the default
/// engine and a 2^26-step cap.
InterpOptions fuzzInterpOptions() {
  InterpOptions IO;
  IO.MaxSteps = uint64_t(1) << 26;
  return IO;
}

/// Seeds the count metrics are taken over: a fixed number from the start
/// seed, so the counts do not depend on how fast the run went. Per-seed
/// dynamic counts are heavy-tailed (a few generated loop nests run 50x the
/// median), so the counts are medians over these seeds, not means.
constexpr uint64_t CountSeeds = 1000;

/// Consecutive seeds per throughput block (see blockRate).
constexpr size_t SeedBlock = 10;

/// Replays checkProgram's diff matrix for \p Src through the stage
/// functions: one frontend, one analysis per kind, one suffix and one
/// interpretation per matrix cell, with the remark engine on for promoting
/// cells as the oracle does.
bool replayDiff(const std::string &Src, const std::vector<FuzzConfig> &Matrix,
                TimingReport &T, StageCounts &C, std::string &Why) {
  StageOptions SO;
  SO.CollectTiming = true;
  FrontendArtifact FA = runFrontend(Src, SO);
  if (!FA.Ok) {
    Why = "frontend: " + FA.Errors;
    return false;
  }
  T.merge(FA.Timing);
  T.FrontendMillis += FA.WallMillis;
  AnalyzedModule AM[2];
  for (int K = 0; K != 2; ++K) {
    AM[K] = analyzeFrontend(FA, K ? AnalysisKind::PointsTo
                                  : AnalysisKind::ModRef, SO);
    T.merge(AM[K].Timing);
    T.FrontendMillis += AM[K].WallMillis;
    T.CacheMisses += 1;
  }
  InterpOptions IO = fuzzInterpOptions();
  for (const FuzzConfig &F : Matrix) {
    RemarkEngine Re;
    CompilerConfig Cfg = F.toCompilerConfig();
    Cfg.CollectTiming = true;
    if (F.Promo) {
      Cfg.Remarks = &Re;
      Cfg.ResidualAudit = false;
    }
    CompileOutput CO =
        compileSuffix(AM[F.Analysis == AnalysisKind::PointsTo], Cfg);
    if (!CO.Ok) {
      Why = F.name() + ": " + CO.Errors;
      return false;
    }
    C.add(CO.Stats);
    double T0 = nowMs();
    ExecResult E = interpret(*CO.M, IO);
    CO.Timing.InterpMillis = nowMs() - T0;
    CO.Timing.InterpSteps = E.Counters.Total;
    CO.Timing.Engine = interpEngineName(IO.Engine);
    T.merge(CO.Timing);
    if (!E.Ok) {
      Why = F.name() + ": " + E.Error;
      return false;
    }
  }
  T.CacheHits += Matrix.size() - 2;
  return true;
}

/// True when the campaign log has a FAIL line for a seed. A one-seed
/// campaign's corpus-level load check compares a single program's loads,
/// which promotion may legally raise (landing pads, spills); that line is a
/// corpus property, not a verdict on the seed, so it does not count.
bool seedFailed(const std::string &Log) {
  std::istringstream In(Log);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("FAIL seed=", 0) == 0)
      return true;
  return false;
}

} // namespace

double setupFuzz(const std::string &) {
  return fullMatrix().empty() ? -1 : nowMs();
}

Report runFuzz(const RunArgs &A) {
  Report R;
  R.Engine = interpEngineName(DefaultInterpEngine);
  std::vector<FuzzConfig> Matrix = fullMatrix();
  // As `rpfuzz --seed=N`: the campaign's seeds run consecutively from the
  // workload seed.
  const uint64_t Seed0 = A.Seed;

  CampaignOptions CO;
  CO.Runs = 1;
  CO.Jobs = 1;
  CO.ProgressInterval = 0;
  CO.MaxPrintedPrograms = 1;

  std::vector<double> Phase[2]; // op ms, untraced / traced
  TimingReport Timing;
  StageCounts Counts;
  double GenMs = 0, DiffMs = 0;
  double Start = nowMs();
  double Budget = A.Seconds * 1e3;
  uint64_t Seed = Seed0;
  RegistryReading TracedDelta;
  for (;; ++Seed) {
    double Elapsed = nowMs() - Start;
    if (Elapsed >= Budget)
      break;
    bool Traced = A.Trace && Elapsed >= Budget / 2;
    RegistryReading R0 = RegistryReading::now();
    CO.Seed0 = Seed;
    double T0 = nowMs();
    CampaignResult CR = runCampaign(CO);
    double Ms = nowMs() - T0;
    ++R.Attempted;
    if (seedFailed(CR.Log))
      R.fail("fuzz seed " + std::to_string(Seed) + ":\n" + CR.Log);
    R.OpMs.push_back(Ms);
    Phase[Traced].push_back(Ms);
    if (Phase[Traced].size() % SeedBlock == 0)
      sampleSetup(A, R);
    if (!Traced)
      continue;
    TracedDelta = TracedDelta + (RegistryReading::now() - R0);
    double G0 = nowMs();
    std::string Src = generateProgram(Seed);
    double G1 = nowMs();
    std::string Why;
    if (!replayDiff(Src, Matrix, Timing, Counts, Why))
      R.fail("fuzz seed " + std::to_string(Seed) + " diff replay: " + Why);
    GenMs += G1 - G0;
    DiffMs += nowMs() - G1;
  }
  std::fprintf(stderr, "perfbench: fuzz seeds checked: %llu..%llu\n",
               static_cast<unsigned long long>(Seed0),
               static_cast<unsigned long long>(Seed - 1));
  R.OpsPerSec = blockRate(Phase[0], SeedBlock);
  R.OpP50Ms = median(Phase[0]);

  // Output-quality counts: per seed, the default with-promotion cells (r16,
  // opts, modern allocator) summed over both analyses, as the suite sums its
  // 28 cells; reported as the median over CountSeeds seeds.
  InterpOptions IO = fuzzInterpOptions();
  std::vector<double> Dyn[3], Code;
  for (uint64_t S = Seed0; S != Seed0 + CountSeeds; ++S) {
    std::string Src = generateProgram(S);
    FrontendArtifact FA = runFrontend(Src);
    double PerSeed[4] = {0, 0, 0, 0};
    for (int K = 0; K != 2; ++K) {
      CompilerConfig Cfg;
      Cfg.Analysis = K ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
      CompileOutput Out =
          FA.Ok ? compileSuffix(analyzeFrontend(FA, Cfg.Analysis), Cfg)
                : CompileOutput();
      ExecResult E = Out.Ok ? interpret(*Out.M, IO) : ExecResult();
      if (!E.Ok) {
        R.fail("fuzz count seed " + std::to_string(S) + ": " +
               (Out.Ok ? E.Error : Out.Errors));
        continue;
      }
      PerSeed[0] += double(E.Counters.Total);
      PerSeed[1] += double(E.Counters.Loads);
      PerSeed[2] += double(E.Counters.Stores);
      PerSeed[3] += double(countStaticOps(*Out.M));
    }
    for (int I = 0; I != 3; ++I)
      Dyn[I].push_back(PerSeed[I]);
    Code.push_back(PerSeed[3]);
  }
  R.DynOps = median(Dyn[0]);
  R.DynLoads = median(Dyn[1]);
  R.DynStores = median(Dyn[2]);
  R.CodeOps = median(Code);

  if (A.Trace && !Phase[1].empty()) {
    double Ops = double(Phase[1].size());
    double Wall = 0;
    for (double Ms : Phase[1])
      Wall += Ms;
    R.layer("op.ms", Wall / Ops, "ms");
    addPipelineLayers(R, Timing, TracedDelta, Counts, Ops);
    R.layer("fuzz.gen_ms", GenMs / Ops, "ms");
    R.layer("fuzz.diff_ms", DiffMs / Ops, "ms");
    R.layer("fuzz.other_ms", (Wall - GenMs - DiffMs) / Ops, "ms");
    R.layer("trace.overhead",
            blockRate(Phase[1], SeedBlock) / R.OpsPerSec, "ratio");
  }
  return R;
}

} // namespace perfbench
