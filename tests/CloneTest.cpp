//===- tests/CloneTest.cpp - Module deep-clone tests ----------------------===//
//
// Module::clone() is the compile cache's forking primitive: every cached
// frontend/analysis artifact is handed out only as a clone, never as the
// cached instance. These tests pin the clone contract down — a clone prints
// byte-identically, verifies cleanly, shares no mutable state with its
// source, and a suffix compiled from a clone matches the monolithic
// pipeline exactly.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactCache.h"
#include "driver/Compiler.h"
#include "frontend/Lowering.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

const char *kProgram = R"(
int g;
int A[8];
int *p;

int sum(int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i = i + 1) {
    A[i] = i * i;
    s = s + A[i];
  }
  return s;
}

int main() {
  g = sum(8);
  p = &g;
  *p = *p + 1;
  print_int(g);
  return 0;
}
)";

std::unique_ptr<Module> lower(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  EXPECT_TRUE(compileToIL(Src, *M, Err)) << Err;
  return M;
}

TEST(CloneTest, PrintsByteIdentically) {
  auto M = lower(kProgram);
  auto C = M->clone();
  EXPECT_EQ(printModule(*M), printModule(*C));
}

TEST(CloneTest, CloneIsVerifierClean) {
  auto M = lower(kProgram);
  auto C = M->clone();
  std::string Err;
  EXPECT_TRUE(verifyModule(*C, Err)) << Err;
}

TEST(CloneTest, OptimizedModuleClonesByteIdentically) {
  // Clone after the full pipeline too: tag lists, MOD/REF summaries, and
  // regalloc'd bodies must all survive the copy.
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  CompileOutput Out = compileProgram(kProgram, Cfg);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  auto C = Out.M->clone();
  EXPECT_EQ(printModule(*Out.M), printModule(*C));
  std::string Err;
  EXPECT_TRUE(verifyModule(*C, Err)) << Err;
}

TEST(CloneTest, MutatingCloneLeavesOriginalUntouched) {
  auto M = lower(kProgram);
  std::string Before = printModule(*M);
  auto C = M->clone();

  // Mutate the clone along every axis the cache forks: function bodies,
  // the function list, the tag table, and global initializers.
  Function *F = C->function(C->lookup("sum"));
  ASSERT_NE(F, nullptr);
  F->entry()->insts().front()->Op = Opcode::Ret;
  F->entry()->insts().front()->Ops.clear();
  C->addFunction("intruder");
  C->tags().createGlobal("intruder_g", 8, true, MemType::I64);

  EXPECT_EQ(printModule(*M), Before);
  EXPECT_EQ(M->lookup("intruder"), NoFunc);
}

TEST(CloneTest, SuffixFromCloneMatchesMonolithicPipeline) {
  // The cache's whole correctness claim in one assertion: frontend +
  // analysis compiled once, suffix forked from a clone, must equal the
  // single-shot pipeline byte for byte.
  for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo}) {
    CompilerConfig Cfg;
    Cfg.Analysis = Kind;

    CompileOutput Mono = compileProgram(kProgram, Cfg);
    ASSERT_TRUE(Mono.Ok) << Mono.Errors;

    FrontendArtifact FA = runFrontend(kProgram);
    ASSERT_TRUE(FA.Ok) << FA.Errors;
    AnalyzedModule AM = analyzeFrontend(FA, Kind);
    ASSERT_TRUE(AM.Ok) << AM.Errors;
    CompileOutput Staged = compileSuffix(AM, Cfg);
    ASSERT_TRUE(Staged.Ok) << Staged.Errors;

    EXPECT_EQ(printModule(*Mono.M), printModule(*Staged.M));
  }
}

TEST(CloneTest, CacheForksAreIndependent) {
  // Two compiles of the same program through one cache must not alias: the
  // second result is unaffected by mutating the first.
  ArtifactCache Cache(SIZE_MAX);
  ArtifactCache::Outcome O;
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::ModRef;
  CompileOutput A = compileSuffix(
      Cache.get(kProgram, Cfg.Analysis, O)->analyzed(Cfg.Analysis), Cfg);
  ASSERT_TRUE(A.Ok) << A.Errors;
  std::string Ref = printModule(*A.M);

  Function *F = A.M->function(A.M->lookup("main"));
  ASSERT_NE(F, nullptr);
  F->entry()->insts().front()->Op = Opcode::Ret;

  CompileOutput B = compileSuffix(
      Cache.get(kProgram, Cfg.Analysis, O)->analyzed(Cfg.Analysis), Cfg);
  ASSERT_TRUE(B.Ok) << B.Errors;
  EXPECT_EQ(printModule(*B.M), Ref);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

} // namespace
