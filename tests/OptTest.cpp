//===- tests/OptTest.cpp - Optimization pass tests ------------------------===//

#include "alias/ModRef.h"
#include "analysis/CfgNormalize.h"
#include "driver/Compiler.h"
#include "frontend/Lowering.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "opt/Cleanup.h"
#include "opt/ConstFold.h"
#include "opt/CopyProp.h"
#include "opt/Dce.h"
#include "opt/Licm.h"
#include "opt/Pre.h"
#include "opt/Sccp.h"
#include "opt/ValueNumbering.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

using namespace rpcc;

namespace {

std::unique_ptr<Module> compileSrc(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  bool Ok = compileToIL(Src, *M, Err);
  EXPECT_TRUE(Ok) << Err;
  for (size_t FI = 0; FI != M->numFunctions(); ++FI) {
    Function *F = M->function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
  runModRef(*M);
  return M;
}

void verifyAll(const Module &M) {
  std::string Err;
  EXPECT_TRUE(verifyModule(M, Err)) << Err;
}

uint64_t countOps(const Module &M, const std::string &Fn, Opcode Op) {
  const Function *F = M.function(M.lookup(Fn));
  uint64_t N = 0;
  for (const auto &B : F->blocks())
    for (const auto &IP : B->insts())
      if (IP->Op == Op)
        ++N;
  return N;
}

TEST(VnTest, FoldsConstantsInBlock) {
  auto M = compileSrc("int main() { int a; a = 6 * 7; return a; }");
  runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(countOps(*M, "main", Opcode::Mul), 0u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(VnTest, ReusesRedundantExpression) {
  auto M = compileSrc("int f(int x, int y) { return (x + y) * (x + y); }\n"
                      "int main() { return f(3, 4); }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_GE(S.Reused, 1u);
  EXPECT_EQ(countOps(*M, "f", Opcode::Add), 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 49);
}

TEST(VnTest, ForwardsScalarLoadAfterStore) {
  auto M = compileSrc("int g;\n"
                      "int main() { g = 11; return g; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_GE(S.LoadsForwarded, 1u);
  EXPECT_EQ(countOps(*M, "main", Opcode::ScalarLoad), 0u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(VnTest, EliminatesOverwrittenStore) {
  auto M = compileSrc("int g;\n"
                      "int main() { g = 1; g = 2; return g; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(S.DeadStores, 1u);
  EXPECT_EQ(countOps(*M, "main", Opcode::ScalarStore), 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(VnTest, CallBlocksStoreElimination) {
  auto M = compileSrc("int g;\n"
                      "int peek() { return g; }\n"
                      "int main() { int a; g = 1; a = peek(); g = 2;\n"
                      "  return g * 10 + a; }");
  VnStats S = runValueNumbering(*M);
  verifyAll(*M);
  EXPECT_EQ(S.DeadStores, 0u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 21);
}

TEST(VnTest, DeadStoresToTwoTagsFoundOutOfOrder) {
  // g3's dead store is found (at `g3 = v ^ 25`) before g1's (at `g1 = 42`),
  // though g1's comes first in the block. Erasing that unsorted list back
  // to front removed g1's store first, shifting g3's index by one: the
  // LOADI feeding the XOR went instead of `g3 = 2`, and the program
  // printed 52.
  const char *Src = "int g1; int g3;\n"
                    "int f(int v) { g1 = v; g3 = 2; g3 = v ^ 25; g1 = 42;\n"
                    "  return g1 + g3; }\n"
                    "int main() { print_int(f(10)); return 0; }";
  CompilerConfig NoOpts;
  NoOpts.EnableOpts = false;
  ExecResult Ref = compileAndRun(Src, NoOpts);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Ref.Output, "61");
  ExecResult Opt = compileAndRun(Src);
  ASSERT_TRUE(Opt.Ok) << Opt.Error;
  EXPECT_EQ(Opt.Output, Ref.Output);
}

TEST(PreTest, EliminatesAcrossBlocks) {
  // x+y computed on both arms, then again at the join: the join
  // computation is fully redundant.
  auto M = compileSrc("int f(int x, int y, int c) {\n"
                      "  int a; int b;\n"
                      "  if (c) a = x + y; else a = x + y;\n"
                      "  b = x + y;\n"
                      "  return a + b; }\n"
                      "int main() { return f(2, 3, 1); }");
  PreStats S = runPre(*M);
  verifyAll(*M);
  EXPECT_GE(S.ExprsEliminated, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 10);
}

TEST(PreTest, RedundantScalarLoadAcrossBlocks) {
  auto M = compileSrc("int g;\n"
                      "int main() { int a; int b;\n"
                      "  a = g;\n"
                      "  if (a > 0) b = g; else b = g;\n"
                      "  return a + b; }");
  PreStats S = runPre(*M);
  verifyAll(*M);
  // The two branch loads see g available from the first load.
  EXPECT_GE(S.LoadsEliminated, 2u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
}

TEST(PreTest, StoreKillsAvailability) {
  auto M = compileSrc("int g;\n"
                      "void set(int v) { g = v; }\n"
                      "int main() { int a; int b;\n"
                      "  a = g; set(5); b = g;\n"
                      "  return b * 10 + a; }");
  runPre(*M);
  verifyAll(*M);
  // The second load must survive (the call mods g).
  EXPECT_GE(countOps(*M, "main", Opcode::ScalarLoad), 2u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 50);
}

TEST(SccpTest, FoldsBranchAndPropagates) {
  auto M = compileSrc("int main() { int a; int r;\n"
                      "  a = 4;\n"
                      "  if (a > 10) r = 1; else r = 2;\n"
                      "  return r + a; }");
  SccpStats S = runSccp(*M);
  runCleanup(*M);
  verifyAll(*M);
  EXPECT_GE(S.BranchesResolved, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 6);
}

TEST(SccpTest, DoesNotFoldRuntimeValues) {
  auto M = compileSrc("int g = 7;\n"
                      "int main() { if (g > 3) return 1; return 0; }");
  SccpStats S = runSccp(*M);
  verifyAll(*M);
  EXPECT_EQ(S.BranchesResolved, 0u) << "loads are runtime values";
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(SccpTest, MeetOverMultipleDefs) {
  auto M = compileSrc("int g;\n"
                      "int main() { int a;\n"
                      "  if (g) a = 1; else a = 2;\n"
                      "  return a * 3; }");
  runSccp(*M);
  verifyAll(*M);
  // a is not constant; the multiply must survive.
  EXPECT_EQ(countOps(*M, "main", Opcode::Mul), 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 6);
}

/// Runs `OP r0, r1` on the reference switch engine, with both operands
/// materialized from their bit patterns by LOADI, and returns main's result.
ExecResult runOneOp(Opcode Op, uint64_t A, uint64_t B) {
  Module M;
  Function *F = M.addFunction("main");
  F->setReturn(true, RegType::Int);
  IRBuilder Bld(M, F);
  Bld.setBlock(F->newBlock("entry"));
  Reg RA = Bld.emitLoadI(static_cast<int64_t>(A));
  Reg RB = Bld.emitLoadI(static_cast<int64_t>(B));
  Instruction I(Op);
  I.Ops = {RA};
  if (opcodeInfo(Op).NumOps == 2)
    I.Ops.push_back(RB);
  I.Result = F->newReg(RegType::Int);
  Reg R = I.Result;
  F->block(0)->append(std::move(I));
  Bld.emitRet(R);
  std::string Err;
  EXPECT_TRUE(verifyModule(M, Err)) << Err;
  InterpOptions Opts;
  Opts.Engine = InterpEngine::Switch;
  return interpret(M, Opts);
}

TEST(ConstFoldTest, MatchesSwitchInterpreter) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  auto Bits = [](double D) { return std::bit_cast<uint64_t>(D); };
  // Every operand pattern is tried as an integer and as a double: 0 is also
  // +0.0, INT64_MIN is -0.0, and -1 and INT64_MAX are NaNs.
  const uint64_t Edges[] = {
      0, 1, static_cast<uint64_t>(-1),
      static_cast<uint64_t>(INT64_MIN), static_cast<uint64_t>(INT64_MAX),
      63, 64, 65,
      Bits(std::nan("")), Bits(Inf), Bits(-Inf), Bits(1.0),
      Bits(-1.0), Bits(9.3e18), Bits(-9.3e18)};
  static_assert(std::size(Edges) == 15);
  EXPECT_EQ(Bits(-0.0), static_cast<uint64_t>(INT64_MIN));
  size_t Foldable = 0, Faults = 0, BothNaN = 0;
  for (size_t K = 0; K != NumOpcodes; ++K) {
    Opcode Op = static_cast<Opcode>(K);
    SCOPED_TRACE(opcodeName(Op));
    // Arithmetic: pure, with register operands, and not a plain copy.
    if (!isPureOp(Op) || opcodeInfo(Op).NumOps < 1 || Op == Opcode::Copy) {
      EXPECT_FALSE(foldConstant(Op, 1, 2));
      continue;
    }
    ++Foldable;
    for (uint64_t A : Edges)
      for (uint64_t B : Edges) {
        if (opcodeInfo(Op).NumOps == 1 && B != 0)
          continue;
        std::optional<uint64_t> Folded = foldConstant(Op, A, B);
        ExecResult R = runOneOp(Op, A, B);
        // Which NaN's payload survives is the host's choice; the folder
        // leaves it to the engine.
        if (isFloatResult(Op) && opcodeInfo(Op).NumOps == 2 &&
            std::isnan(std::bit_cast<double>(A)) &&
            std::isnan(std::bit_cast<double>(B))) {
          EXPECT_FALSE(Folded) << std::hex << A << ", " << B;
          EXPECT_TRUE(R.Ok) << R.Error;
          ++BothNaN;
          continue;
        }
        ASSERT_EQ(Folded.has_value(), R.Ok)
            << std::hex << A << ", " << B << ": " << R.Error;
        if (R.Ok)
          EXPECT_EQ(*Folded, static_cast<uint64_t>(R.ExitCode))
              << std::hex << A << ", " << B;
        else
          ++Faults;
      }
  }
  EXPECT_EQ(Foldable, 31u);
  // x / 0 and x % 0 for each of the 15 dividends, plus INT64_MIN / -1.
  EXPECT_EQ(Faults, 15u + 15u + 1u);
  // -1, INT64_MAX and the NaN are NaN patterns: 3 x 3 pairs for each of
  // FADD, FSUB, FMUL and FDIV.
  EXPECT_EQ(BothNaN, 4u * 9u);
  const uint64_t Min = static_cast<uint64_t>(INT64_MIN);
  const uint64_t MinusOne = static_cast<uint64_t>(-1);
  EXPECT_FALSE(foldConstant(Opcode::Div, Min, MinusOne));
  EXPECT_FALSE(foldConstant(Opcode::Div, 7, 0));
  EXPECT_FALSE(foldConstant(Opcode::Rem, 7, 0));
  EXPECT_EQ(foldConstant(Opcode::Rem, Min, MinusOne), std::optional<uint64_t>(0));
}

TEST(LicmTest, HoistsInvariantArithmetic) {
  auto M = compileSrc("int g;\n"
                      "int main() { int i; int n; int s; n = 100; s = 0;\n"
                      "  for (i = 0; i < 10; i++) s = s + n * 3;\n"
                      "  return s; }");
  // VN first so the loop body is in reasonable shape, then LICM.
  runValueNumbering(*M);
  LicmStats S = runLicm(*M);
  verifyAll(*M);
  EXPECT_GE(S.HoistedPure, 1u);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 3000);
}

TEST(LicmTest, HoistsInvariantScalarLoadTheCLoadEffect) {
  auto M = compileSrc("int n = 7;\n"
                      "int main() { int i; int s; s = 0;\n"
                      "  for (i = 0; i < 10; i++) s = s + n;\n"
                      "  return s; }");
  ExecResult Before = interpret(*M);
  LicmStats S = runLicm(*M);
  verifyAll(*M);
  EXPECT_GE(S.HoistedLoads, 1u);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
  EXPECT_LT(After.Counters.Loads, Before.Counters.Loads);
}

TEST(LicmTest, ModifiedTagBlocksLoadHoist) {
  auto M = compileSrc("int n = 7;\n"
                      "int main() { int i; int s; s = 0;\n"
                      "  for (i = 0; i < 10; i++) { s = s + n; n = n + 1; }\n"
                      "  return s; }");
  ExecResult Before = interpret(*M);
  runLicm(*M);
  verifyAll(*M);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok);
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
}

TEST(LicmTest, NeverSpeculatesDivision) {
  auto M = compileSrc("int d;\n"
                      "int main() { int i; int s; int k; s = 0; k = 10;\n"
                      "  for (i = 0; i < 10; i++) {\n"
                      "    if (d != 0) s = s + k / d;\n"
                      "  }\n"
                      "  return s; }");
  runValueNumbering(*M);
  runLicm(*M);
  verifyAll(*M);
  // d == 0 at runtime: the division must never execute.
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << "division was speculated: " << R.Error;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(DceTest, RemovesDeadChains) {
  auto M = compileSrc("int main() { int a; int b; int c;\n"
                      "  a = 1; b = a + 2; c = b * 3; /* c unused */\n"
                      "  return 9; }");
  unsigned N = runDce(*M);
  verifyAll(*M);
  EXPECT_GE(N, 2u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(DceTest, KeepsStoresAndCalls) {
  auto M = compileSrc("int g;\n"
                      "int bump() { g = g + 1; return g; }\n"
                      "int main() { bump(); bump(); return g; }");
  runDce(*M);
  verifyAll(*M);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(CleanupTest, CollapsesForwardingChains) {
  auto M = compileSrc("int main() { int a; a = 0;\n"
                      "  if (1) { if (1) { a = 3; } }\n"
                      "  return a; }");
  runSccp(*M);
  size_t Before = M->function(M->lookup("main"))->numBlocks();
  runCleanup(*M);
  size_t After = M->function(M->lookup("main"))->numBlocks();
  verifyAll(*M);
  EXPECT_LT(After, Before);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(CopyPropTest, CollapsesChains) {
  auto M = compileSrc("int A[4];\n"
                      "int main() { A[1] = 5; return A[1]; }");
  runValueNumbering(*M);
  unsigned N = propagateCopies(*M);
  runDce(*M);
  verifyAll(*M);
  EXPECT_GE(N, 1u);
  ExecResult R = interpret(*M);
  EXPECT_EQ(R.ExitCode, 5);
}

} // namespace
