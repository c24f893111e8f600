//===- tests/FuzzTest.cpp - Fuzzing subsystem tests -----------------------===//
//
// Exercises the four pillars of src/fuzz: the seeded program generator, the
// differential oracle, the analysis fault injector, and the ddmin reducer.
// The bounded sweeps here are the deterministic ctest face of what
// tools/rpfuzz runs at scale.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "frontend/Lowering.h"
#include "fuzz/Campaign.h"
#include "fuzz/DifferentialOracle.h"
#include "fuzz/FaultInjector.h"
#include "fuzz/ProgramGenerator.h"
#include "fuzz/Reducer.h"
#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

InterpOptions testInterpOptions() {
  InterpOptions IO;
  IO.MaxSteps = uint64_t(1) << 26; // generated programs terminate quickly
  return IO;
}

TEST(GeneratorTest, Deterministic) {
  for (uint64_t Seed : {1u, 7u, 42u, 1000u}) {
    EXPECT_EQ(generateProgram(Seed), generateProgram(Seed)) << Seed;
  }
  EXPECT_NE(generateProgram(1), generateProgram(2));
}

TEST(GeneratorTest, ProgramsCompileAndTerminate) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    std::string Src = generateProgram(Seed);
    CompilerConfig Cfg;
    Cfg.Analysis = AnalysisKind::PointsTo;
    ExecResult R = compileAndRun(Src, Cfg, testInterpOptions());
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error << "\n" << Src;
  }
}

TEST(GeneratorTest, OptionsShapeTheProgram) {
  GeneratorOptions NoPtr;
  NoPtr.UsePointers = false;
  NoPtr.UseFloats = false;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::string Src = generateProgram(Seed, NoPtr);
    CompilerConfig Cfg;
    ExecResult R = compileAndRun(Src, Cfg, testInterpOptions());
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
  }
}

TEST(DifferentialTest, QuickMatrixAgrees) {
  std::vector<FuzzConfig> Matrix = quickMatrix();
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Src = generateProgram(Seed);
    OracleResult R = checkProgram(Src, Matrix, testInterpOptions());
    ASSERT_TRUE(R.Ok) << "seed " << Seed << " diverged in " << R.FailingConfig
                      << ": " << R.Message << "\n"
                      << Src;
  }
}

TEST(DifferentialTest, RemarkStreamStableAcrossBackendKnobs) {
  // The oracle also asserts that promotion-decision remarks are identical
  // across promoting cells sharing an analysis; give it a matrix that
  // varies every backend knob remarks must ignore.
  std::vector<FuzzConfig> Matrix;
  for (unsigned Regs : {8u, 16u, 32u}) {
    FuzzConfig C;
    C.Promo = true;
    C.Opts = true;
    C.Regs = Regs;
    Matrix.push_back(C);
  }
  FuzzConfig Classic = Matrix.front();
  Classic.Classic = true;
  Matrix.push_back(Classic);
  FuzzConfig NoOpts = Matrix.front();
  NoOpts.Opts = false;
  Matrix.push_back(NoOpts);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    std::string Src = generateProgram(Seed);
    OracleResult R = checkProgram(Src, Matrix, testInterpOptions());
    ASSERT_TRUE(R.Ok) << "seed " << Seed << " in " << R.FailingConfig << ": "
                      << R.Message << "\n"
                      << Src;
  }
}

TEST(DifferentialTest, DeadStoreEraseOrderSeedsAgree) {
  // Default-campaign seeds whose programs store twice to two globals in one
  // block: value numbering erased the wrong instruction when the dead
  // stores were found out of index order, and every opts cell diverged.
  std::vector<FuzzConfig> Matrix = fullMatrix();
  for (uint64_t Seed : {253688632ull, 253688650ull, 253688793ull,
                        347714387384ull}) {
    OracleResult R =
        checkProgram(generateProgram(Seed), Matrix, testInterpOptions());
    EXPECT_TRUE(R.Ok) << "seed " << Seed << " diverged in "
                      << R.FailingConfig << ": " << R.Message;
  }
}

TEST(DifferentialTest, DetectsIntroducedDivergence) {
  // A config whose behavior genuinely differs must be flagged: drive the
  // matrix against a program, then corrupt the baseline comparison by
  // checking a program whose output depends on a runtime error in one cell.
  // Simplest route: a program that runs out of registers is still required
  // to agree, so instead feed a non-compiling program and expect a report.
  std::vector<FuzzConfig> Matrix = quickMatrix();
  OracleResult R = checkProgram("int main() { return undeclared; }", Matrix,
                                testInterpOptions());
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Message.empty());
}

TEST(FaultInjectorTest, WideningPreservesBehavior) {
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 110; ++Seed) {
    std::string Src = generateProgram(Seed);
    CompilerConfig Base;
    Base.Analysis = AnalysisKind::PointsTo;
    ExecResult Ref = compileAndRun(Src, Base, testInterpOptions());
    ASSERT_TRUE(Ref.Ok) << "seed " << Seed << ": " << Ref.Error;

    CompilerConfig Widened = Base;
    Widened.PostAnalysisHook = [Seed](Module &M) { widenAnalysis(M, Seed); };
    ExecResult Got = compileAndRun(Src, Widened, testInterpOptions());
    ASSERT_TRUE(Got.Ok) << "seed " << Seed << ": " << Got.Error;
    EXPECT_EQ(Got.ExitCode, Ref.ExitCode) << "seed " << Seed << "\n" << Src;
    EXPECT_EQ(Got.Output, Ref.Output) << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 100u);
}

TEST(FaultInjectorTest, CorruptionAlwaysCaught) {
  unsigned Corrupted = 0;
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    std::string Src = generateProgram(Seed);
    Module M;
    std::string Err;
    ASSERT_TRUE(compileToIL(Src, M, Err)) << "seed " << Seed << ": " << Err;
    std::string PreErr;
    ASSERT_TRUE(verifyModule(M, PreErr)) << "seed " << Seed << ": " << PreErr;

    std::string Desc;
    if (!corruptModule(M, Seed, Desc))
      continue; // no viable corruption site for this seed
    ++Corrupted;
    // The printer must render broken IL without crashing.
    EXPECT_FALSE(printModule(M).empty());
    std::string PostErr;
    VerifyOptions VO;
    VO.CheckDefBeforeUse = true;
    EXPECT_FALSE(verifyModule(M, PostErr, VO))
        << "seed " << Seed << " corruption not caught: " << Desc;
    EXPECT_FALSE(PostErr.empty()) << "seed " << Seed << ": " << Desc;
  }
  EXPECT_GE(Corrupted, 90u); // nearly every seed should offer a site
}

TEST(ReducerTest, ShrinksSyntheticFailure) {
  // 30+ lines of noise around a single null dereference; the predicate is
  // "compiles cleanly but faults at runtime", mirroring rpfuzz --predicate=
  // error.
  std::string Src = "int g0;\n"
                    "int g1;\n"
                    "int g2;\n"
                    "int arr[16];\n"
                    "int helper(int a, int b) {\n"
                    "  int t;\n"
                    "  t = a * 3 + b;\n"
                    "  return t;\n"
                    "}\n"
                    "int noise(int x) {\n"
                    "  return x * x + 1;\n"
                    "}\n"
                    "int main() {\n"
                    "  int v0;\n"
                    "  int v1;\n"
                    "  int i;\n"
                    "  int *p;\n"
                    "  v0 = 10;\n"
                    "  v1 = 20;\n"
                    "  g0 = helper(v0, v1);\n"
                    "  g1 = noise(g0);\n"
                    "  for (i = 0; i < 8; i = i + 1) {\n"
                    "    arr[i & 15] = i * 2;\n"
                    "  }\n"
                    "  g2 = arr[3] + arr[5];\n"
                    "  p = 0;\n"
                    "  v0 = v0 + g1;\n"
                    "  v1 = v1 + g2;\n"
                    "  g0 = *p;\n"
                    "  print_int(g0 + v0 + v1);\n"
                    "  print_char(10);\n"
                    "  return 0;\n"
                    "}\n";
  auto Fails = [](const std::string &Candidate) {
    CompilerConfig Cfg;
    CompileOutput Out = compileProgram(Candidate, Cfg);
    if (!Out.Ok)
      return false;
    return !interpret(*Out.M, testInterpOptions()).Ok;
  };
  ASSERT_TRUE(Fails(Src));
  ReduceStats Stats;
  std::string Reduced = reduceProgram(Src, Fails, &Stats);
  EXPECT_TRUE(Fails(Reduced));
  EXPECT_LE(Stats.FinalLines, 15u) << Reduced;
  EXPECT_LT(Stats.FinalLines, Stats.InitialLines);
}

TEST(ReducerTest, NonFailingInputReturnedUnchanged) {
  std::string Src = "int main() { return 0; }\n";
  auto Never = [](const std::string &) { return false; };
  ReduceStats Stats;
  EXPECT_EQ(reduceProgram(Src, Never, &Stats), Src);
  EXPECT_EQ(Stats.PredicateRuns, 1u);
}

TEST(DifferentialTest, PromotionReducesLoadsAcrossCorpus) {
  // Per program the delta can go either way (landing-pad loads, spill
  // code); summed over a corpus promotion must not add loads.
  std::vector<FuzzConfig> Matrix = quickMatrix();
  auto Pairs = promotionPairs(Matrix);
  ASSERT_FALSE(Pairs.empty());
  std::vector<uint64_t> Totals(Matrix.size(), 0);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    OracleResult R =
        checkProgram(generateProgram(Seed), Matrix, testInterpOptions());
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Message;
    for (size_t I = 0; I != R.Loads.size(); ++I)
      Totals[I] += R.Loads[I];
  }
  for (auto [Without, With] : Pairs)
    EXPECT_LE(Totals[With], Totals[Without])
        << Matrix[With].name() << " vs " << Matrix[Without].name();
}

TEST(CampaignTest, ParallelLogMatchesSerialByteForByte) {
  // The tentpole determinism guarantee for rpfuzz --jobs=N: identical
  // verdict log and failure count for any worker count. Progress lines
  // every 10 seeds make the interleaving-sensitive path do real work.
  CampaignOptions Opts;
  Opts.Runs = 24;
  Opts.Quick = true;
  Opts.ProgressInterval = 10;
  Opts.Jobs = 1;
  CampaignResult Serial = runCampaign(Opts);
  Opts.Jobs = 4;
  CampaignResult Par = runCampaign(Opts);
  EXPECT_EQ(Serial.Failures, Par.Failures);
  EXPECT_EQ(Serial.Log, Par.Log);
  // 24 clean seeds: two progress lines plus the summary.
  EXPECT_EQ(Serial.Failures, 0u) << Serial.Log;
  EXPECT_NE(Serial.Log.find("rpfuzz: 10/24 seeds"), std::string::npos)
      << Serial.Log;
  EXPECT_NE(Serial.Log.find("rpfuzz: 24 seeds clean"), std::string::npos)
      << Serial.Log;
}

TEST(CampaignTest, ModeFlagsRespected) {
  // corrupt-only campaigns never run the diff oracle, so no corpus-level
  // load check and no Loads accumulation; they still summarize cleanly.
  CampaignOptions Opts;
  Opts.Runs = 5;
  Opts.Quick = true;
  Opts.DoDiff = false;
  Opts.DoWiden = false;
  Opts.ProgressInterval = 0;
  CampaignResult R = runCampaign(Opts);
  EXPECT_EQ(R.Failures, 0u) << R.Log;
  EXPECT_EQ(R.Log, "rpfuzz: 5 seeds clean\n");
}

namespace {

/// Per-cell load totals where every promotion pair's with-promotion cell
/// ran exactly one load more than its without-promotion twin.
std::vector<uint64_t> onePromotedLoadMore(const std::vector<FuzzConfig> &M) {
  std::vector<uint64_t> Totals(M.size(), 1000);
  for (auto [Without, With] : promotionPairs(M))
    Totals[With] = Totals[Without] + 1;
  return Totals;
}

} // namespace

TEST(CampaignTest, CorpusLoadCheckSkipsTinyCorpus) {
  // One program may legitimately load more with promotion (a landing-pad
  // load); below the minimum corpus the check notes itself skipped.
  std::vector<FuzzConfig> Matrix = fullMatrix();
  ASSERT_FALSE(promotionPairs(Matrix).empty());
  CorpusLoadVerdict V =
      checkCorpusLoads(Matrix, onePromotedLoadMore(Matrix), 1);
  EXPECT_EQ(V.Failures, 0u);
  EXPECT_EQ(V.Log, "rpfuzz: corpus load check skipped (1 program(s), needs " +
                       std::to_string(MinLoadCheckCorpus) + ")\n");
}

TEST(CampaignTest, CorpusLoadCheckFailsAtMinimumCorpus) {
  std::vector<FuzzConfig> Matrix = fullMatrix();
  const size_t Pairs = promotionPairs(Matrix).size();
  CorpusLoadVerdict V = checkCorpusLoads(
      Matrix, onePromotedLoadMore(Matrix), MinLoadCheckCorpus);
  EXPECT_EQ(V.Failures, Pairs);
  EXPECT_EQ(V.Log.rfind("FAIL corpus load counts: ", 0), 0u) << V.Log;
  // Equal totals pass at any size.
  std::vector<uint64_t> Even(Matrix.size(), 1000);
  V = checkCorpusLoads(Matrix, Even, MinLoadCheckCorpus);
  EXPECT_EQ(V.Failures, 0u);
  EXPECT_EQ(V.Log, "");
}

TEST(MatrixTest, ConfigNamesAreUnique) {
  std::vector<FuzzConfig> Matrix = fullMatrix();
  EXPECT_GE(Matrix.size(), 48u);
  for (size_t I = 0; I != Matrix.size(); ++I)
    for (size_t J = I + 1; J != Matrix.size(); ++J)
      EXPECT_NE(Matrix[I].name(), Matrix[J].name()) << I << " vs " << J;
}

} // namespace
