//===- bench/CompileTime.cpp - §3.1 cost-model benchmarks -----------------===//
//
// The paper bounds the promotion algorithm's cost by
// O(E alpha(E,B) + T(C + LB + LX)) and notes "In practice, it runs quite
// quickly." These google-benchmark timings exercise the claim: promotion
// time against the number of loops, the nesting depth, and the number of
// tags, plus whole-pipeline compile times for the real benchmark suite.
//
//===----------------------------------------------------------------------===//

#include "alias/ModRef.h"
#include "analysis/CfgNormalize.h"
#include "driver/ArtifactCache.h"
#include "driver/Compiler.h"
#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "frontend/Lowering.h"
#include "promote/ScalarPromotion.h"
#include "Provenance.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace rpcc;

namespace {

/// N sequential loops, each touching G distinct globals.
std::string sequentialLoops(int NumLoops, int NumGlobals) {
  std::ostringstream S;
  for (int G = 0; G != NumGlobals; ++G)
    S << "int g" << G << ";\n";
  S << "int main() { int i;\n";
  for (int L = 0; L != NumLoops; ++L) {
    S << "  for (i = 0; i < 10; i++) {\n";
    for (int G = 0; G != NumGlobals; ++G)
      S << "    g" << G << " = g" << G << " + " << (L + G) << ";\n";
    S << "  }\n";
  }
  S << "  return g0;\n}\n";
  return S.str();
}

/// One loop nest of the given depth, touching G globals at the innermost
/// level (stresses the per-loop aggregation of equations 1-4).
std::string nestedLoops(int Depth, int NumGlobals) {
  std::ostringstream S;
  for (int G = 0; G != NumGlobals; ++G)
    S << "int g" << G << ";\n";
  S << "int main() {\n";
  for (int D = 0; D != Depth; ++D)
    S << "  int i" << D << ";\n";
  for (int D = 0; D != Depth; ++D)
    S << "  for (i" << D << " = 0; i" << D << " < 3; i" << D << "++) {\n";
  for (int G = 0; G != NumGlobals; ++G)
    S << "    g" << G << " = g" << G << " + 1;\n";
  for (int D = 0; D != Depth; ++D)
    S << "  }\n";
  S << "  return g0;\n}\n";
  return S.str();
}

/// Lowers + analyzes once per measurement, timing only the promoter.
void benchPromotion(benchmark::State &State, const std::string &Src) {
  for (auto _ : State) {
    State.PauseTiming();
    Module M;
    std::string Err;
    bool Ok = compileToIL(Src, M, Err);
    if (!Ok)
      State.SkipWithError("frontend failure");
    for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
      Function *F = M.function(static_cast<FuncId>(FI));
      if (!F->isBuiltin() && F->numBlocks())
        normalizeLoops(*F);
    }
    runModRef(M);
    State.ResumeTiming();
    PromotionStats S = promoteScalars(M);
    benchmark::DoNotOptimize(S.PromotedTags);
  }
}

void BM_PromoteSequentialLoops(benchmark::State &State) {
  std::string Src =
      sequentialLoops(static_cast<int>(State.range(0)), 8);
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteSequentialLoops)
    ->RangeMultiplier(2)
    ->Range(4, 128)
    ->Complexity();

void BM_PromoteNestDepth(benchmark::State &State) {
  std::string Src = nestedLoops(static_cast<int>(State.range(0)), 8);
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteNestDepth)->DenseRange(2, 12, 2)->Complexity();

void BM_PromoteTagCount(benchmark::State &State) {
  std::string Src =
      sequentialLoops(8, static_cast<int>(State.range(0)));
  benchPromotion(State, Src);
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_PromoteTagCount)->RangeMultiplier(2)->Range(4, 64)->Complexity();

/// Whole-pipeline compile time (frontend through register allocation) for
/// each real suite program.
void BM_CompileSuiteProgram(benchmark::State &State,
                            const std::string &Name) {
  std::string Src = loadBenchProgram(Name);
  for (auto _ : State) {
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::PointsTo;
    CompileOutput Out = compileProgram(Src, Cfg);
    if (!Out.Ok)
      State.SkipWithError("compile failure");
    benchmark::DoNotOptimize(Out.M.get());
  }
}
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, mlink, std::string("mlink"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, gzip_enc, std::string("gzip_enc"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, water, std::string("water"));
BENCHMARK_CAPTURE(BM_CompileSuiteProgram, bison, std::string("bison"));

// ---------------------------------------------------------------------------
// --cache-bench: cached vs uncached whole-suite compile sweep
// ---------------------------------------------------------------------------
//
// Measures what the shared-prefix ArtifactCache buys `rpcc --suite`: for
// each program, one sweep compiles the four matrix configurations —
// {MOD/REF, points-to} x {without, with promotion} — from scratch, and one
// forks them from a fresh cache (frontend once, each analysis once). Each
// sweep is timed --reps times and the raw results go to BENCH_compile.json
// in the same shape as BENCH_interp.json:
//   {"reps":N,"build_type":..,"commit":..,"nproc":..,
//    "results":[{"program":..,"mode":"uncached"|"cached","wall_ms":..,
//    "median_ms":..,"max_ms":..,"runs":..}],"geomean_speedup":..}
// wall_ms is the minimum of the row's runs, the figure the speedups use;
// median_ms and max_ms give their spread. Run from a Release build, like
// interp_throughput.

std::vector<CompilerConfig> suiteMatrix() {
  std::vector<CompilerConfig> Out;
  for (int A = 0; A != 2; ++A)
    for (int P = 0; P != 2; ++P) {
      CompilerConfig Cfg;
      Cfg.Analysis = A == 0 ? AnalysisKind::ModRef : AnalysisKind::PointsTo;
      Cfg.ScalarPromotion = P == 1;
      Out.push_back(Cfg);
    }
  return Out;
}

/// One full matrix sweep over \p Src; a fresh cache per sweep when
/// \p Cached, so the measurement includes the prefix compiles a real
/// suite run pays once per program.
double sweepOnce(const std::string &Src,
                 const std::vector<CompilerConfig> &Matrix, bool Cached) {
  std::unique_ptr<ArtifactCache> Cache;
  if (Cached)
    Cache = std::make_unique<ArtifactCache>(SIZE_MAX);
  double T0 = timingNowMs();
  for (const CompilerConfig &Cfg : Matrix) {
    ArtifactCache::Outcome O;
    CompileOutput Out =
        Cache ? compileSuffix(
                    Cache->get(Src, Cfg.Analysis, O)->analyzed(Cfg.Analysis),
                    Cfg)
              : compileProgram(Src, Cfg);
    if (!Out.Ok) {
      std::fprintf(stderr, "error: compile failure:\n%s", Out.Errors.c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(Out.M.get());
  }
  return timingNowMs() - T0;
}

int runCacheBench(unsigned Reps, const std::string &JsonFile,
                  const std::vector<std::string> &Programs) {
  std::vector<CompilerConfig> Matrix = suiteMatrix();
  TextTable T({"program", "uncached ms", "cached ms", "speedup"});
  std::string Json = "{\"reps\":" + std::to_string(Reps) + provenanceJson() +
                     ",\"results\":[";
  double LogSum = 0;
  for (size_t PI = 0; PI != Programs.size(); ++PI) {
    const std::string &Name = Programs[PI];
    std::string Src = loadBenchProgram(Name);
    std::vector<double> UncachedMs, CachedMs;
    // Warmup: page in the source and fill allocator pools.
    sweepOnce(Src, Matrix, /*Cached=*/false);
    for (unsigned R = 0; R != Reps; ++R) {
      UncachedMs.push_back(sweepOnce(Src, Matrix, false));
      CachedMs.push_back(sweepOnce(Src, Matrix, true));
    }
    RunSpread Uncached = spreadOf(std::move(UncachedMs));
    RunSpread Cached = spreadOf(std::move(CachedMs));
    double Speedup = Uncached.MinMs / Cached.MinMs;
    LogSum += std::log(Speedup);
    T.addRow({Name, fixed(Uncached.MinMs, 3), fixed(Cached.MinMs, 3),
              fixed(Speedup, 2)});
    if (PI)
      Json += ",";
    Json += "{\"program\":\"" + jsonEscape(Name) +
            "\",\"mode\":\"uncached\"" + spreadJson(Uncached) +
            "},{\"program\":\"" + jsonEscape(Name) +
            "\",\"mode\":\"cached\"" + spreadJson(Cached) + "}";
  }
  double Geomean =
      Programs.empty()
          ? 0
          : std::exp(LogSum / static_cast<double>(Programs.size()));
  Json += "],\"geomean_speedup\":" + fixed(Geomean, 3) + "}\n";
  std::fputs(T.render().c_str(), stdout);
  std::printf("geomean speedup (cached vs uncached): %s\n",
              fixed(Geomean, 2).c_str());
  std::ofstream JOut(JsonFile, std::ios::binary);
  if (!JOut) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonFile.c_str());
    return 4;
  }
  JOut << Json;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  bool CacheBench = false;
  unsigned Reps = 5;
  std::string JsonFile = "BENCH_compile.json";
  std::vector<std::string> Programs = benchProgramNames();
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strcmp(A, "--cache-bench") == 0) {
      CacheBench = true;
    } else if (std::strncmp(A, "--reps=", 7) == 0) {
      if (!parseUnsigned(A + 7, Reps) || Reps == 0) {
        std::fprintf(stderr, "error: bad --reps value '%s'\n", A + 7);
        return 2;
      }
    } else if (std::strncmp(A, "--json=", 7) == 0) {
      JsonFile = A + 7;
    } else if (std::strncmp(A, "--programs=", 11) == 0) {
      Programs.clear();
      std::string List = A + 11;
      size_t Pos = 0;
      while (Pos < List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        Programs.push_back(List.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
    }
    // Anything else is a google-benchmark flag; left for Initialize below.
  }
  if (CacheBench)
    return runCacheBench(Reps, JsonFile, Programs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
