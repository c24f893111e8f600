//===- tests/AnalysisTest.cpp - CFG/dominators/loops/callgraph tests ------===//

#include "analysis/CallGraph.h"
#include "analysis/Cfg.h"
#include "analysis/CfgNormalize.h"
#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "frontend/Lowering.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

/// Builds a diamond: B0 -> B1, B2; B1 -> B3; B2 -> B3.
std::unique_ptr<Module> buildDiamond(Function *&FOut) {
  auto M = std::make_unique<Module>();
  Function *F = M->addFunction("f");
  IRBuilder B(*M, F);
  BasicBlock *B0 = F->newBlock("b0");
  BasicBlock *B1 = F->newBlock("b1");
  BasicBlock *B2 = F->newBlock("b2");
  BasicBlock *B3 = F->newBlock("b3");
  B.setBlock(B0);
  Reg C = B.emitLoadI(1);
  B.emitBr(C, B1->id(), B2->id());
  B.setBlock(B1);
  B.emitJmp(B3->id());
  B.setBlock(B2);
  B.emitJmp(B3->id());
  B.setBlock(B3);
  B.emitRet();
  recomputeCfg(*F);
  FOut = F;
  return M;
}

TEST(CfgTest, PredsAndSuccs) {
  Function *F;
  auto M = buildDiamond(F);
  EXPECT_EQ(F->block(0)->succs().size(), 2u);
  EXPECT_EQ(F->block(3)->preds().size(), 2u);
  EXPECT_EQ(F->block(1)->preds().size(), 1u);
}

TEST(CfgTest, ReversePostOrderEntryFirst) {
  Function *F;
  auto M = buildDiamond(F);
  auto RPO = reversePostOrder(*F);
  ASSERT_EQ(RPO.size(), 4u);
  EXPECT_EQ(RPO[0], 0u);
  EXPECT_EQ(RPO[3], 3u); // join last
}

TEST(DominatorsTest, Diamond) {
  Function *F;
  auto M = buildDiamond(F);
  DominatorTree DT(*F);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(3), 0u); // join dominated by fork, not by either arm
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(3, 3));
}

TEST(DominatorsTest, LoopBackEdge) {
  Module M;
  Function *F = M.addFunction("f");
  IRBuilder B(M, F);
  BasicBlock *Entry = F->newBlock("entry");
  BasicBlock *Header = F->newBlock("header");
  BasicBlock *Body = F->newBlock("body");
  BasicBlock *Exit = F->newBlock("exit");
  B.setBlock(Entry);
  B.emitJmp(Header->id());
  B.setBlock(Header);
  Reg C = B.emitLoadI(1);
  B.emitBr(C, Body->id(), Exit->id());
  B.setBlock(Body);
  B.emitJmp(Header->id());
  B.setBlock(Exit);
  B.emitRet();
  recomputeCfg(*F);

  DominatorTree DT(*F);
  EXPECT_EQ(DT.idom(Body->id()), Header->id());
  EXPECT_EQ(DT.idom(Exit->id()), Header->id());
  EXPECT_TRUE(DT.dominates(Header->id(), Body->id()));

  LoopInfo LI(*F);
  ASSERT_EQ(LI.numLoops(), 1u);
  EXPECT_EQ(LI.loop(0).Header, Header->id());
  EXPECT_EQ(LI.loop(0).Blocks.size(), 2u);
  EXPECT_EQ(LI.loop(0).Preheader, Entry->id());
}

/// Compiles source and returns the module for inspecting CFG structure.
std::unique_ptr<Module> compileSrc(const std::string &Src) {
  auto M = std::make_unique<Module>();
  std::string Err;
  bool Ok = compileToIL(Src, *M, Err);
  EXPECT_TRUE(Ok) << Err;
  return M;
}

TEST(LoopInfoTest, TripleNestFromSource) {
  auto M = compileSrc(
      "int g;\n"
      "int main() { int i; int j; int k;\n"
      "  for (i = 0; i < 3; i++)\n"
      "    for (j = 0; j < 3; j++)\n"
      "      for (k = 0; k < 3; k++)\n"
      "        g = g + 1;\n"
      "  return g; }");
  Function *F = M->function(M->lookup("main"));
  normalizeLoops(*F);
  LoopInfo LI(*F);
  ASSERT_EQ(LI.numLoops(), 3u);
  // Depths 1, 2, 3 exactly once each.
  std::vector<unsigned> Depths;
  for (const Loop &L : LI.loops())
    Depths.push_back(L.Depth);
  std::sort(Depths.begin(), Depths.end());
  EXPECT_EQ(Depths, (std::vector<unsigned>{1, 2, 3}));
  // Every loop normalized.
  for (const Loop &L : LI.loops()) {
    EXPECT_NE(L.Preheader, NoBlock);
    for (BlockId E : L.ExitBlocks)
      for (BlockId P : F->block(E)->preds())
        EXPECT_TRUE(L.Contains[P])
            << "exit block " << E << " has an outside predecessor";
  }
}

TEST(CfgNormalizeTest, SharedExitGetsDedicated) {
  // The while-loop's natural exit joins the if-join block; normalization
  // must split it.
  auto M = compileSrc("int g;\n"
                      "int main() { int i; i = 0;\n"
                      "  if (g > 0) { while (i < 10) i++; }\n"
                      "  return i; }");
  Function *F = M->function(M->lookup("main"));
  normalizeLoops(*F);
  LoopInfo LI(*F);
  ASSERT_EQ(LI.numLoops(), 1u);
  for (BlockId E : LI.loop(0).ExitBlocks)
    for (BlockId P : F->block(E)->preds())
      EXPECT_TRUE(LI.loop(0).Contains[P]);
}

TEST(CfgNormalizeTest, RemoveUnreachable) {
  auto M = compileSrc("int main() { return 1; return 2; }");
  Function *F = M->function(M->lookup("main"));
  size_t Before = F->numBlocks();
  removeUnreachableBlocks(*F);
  EXPECT_LT(F->numBlocks(), Before);
}

TEST(CallGraphTest, SccAndRecursion) {
  // Calls resolve without prototypes: Sema declares every function before
  // checking any body, so mutual recursion works in source order.
  auto M = compileSrc(
      "int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n"
      "int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n"
      "int leaf(int x) { return x * 2; }\n"
      "int main() { return even(10) + leaf(3); }");
  CallGraph CG(*M);
  FuncId Even = M->lookup("even"), Odd = M->lookup("odd");
  FuncId Leaf = M->lookup("leaf"), Main = M->lookup("main");
  // even/odd share an SCC and are recursive; leaf and main are not.
  EXPECT_EQ(CG.sccOf(Even), CG.sccOf(Odd));
  EXPECT_NE(CG.sccOf(Even), CG.sccOf(Leaf));
  EXPECT_TRUE(CG.isRecursive(Even));
  EXPECT_TRUE(CG.isRecursive(Odd));
  EXPECT_FALSE(CG.isRecursive(Leaf));
  EXPECT_FALSE(CG.isRecursive(Main));
  // Reverse topological order: callee SCCs precede callers.
  EXPECT_LT(CG.sccOf(Even), CG.sccOf(Main));
  EXPECT_LT(CG.sccOf(Leaf), CG.sccOf(Main));
}

TEST(CallGraphTest, IndirectCallsTargetAddressedFunctions) {
  auto M = compileSrc(
      "int a(int x) { return x + 1; }\n"
      "int b(int x) { return x + 2; }\n"
      "int c(int x) { return x + 3; }\n" // never addressed
      "int (*fp)(int);\n"
      "int main() { fp = a; if (fp(1) > 0) fp = b; return fp(2); }");
  CallGraph CG(*M);
  // a and b are addressed; c is not.
  EXPECT_EQ(CG.addressedFunctions().size(), 2u);
  // main's callees include both addressed functions via the indirect call.
  const auto &Callees = CG.callees(M->lookup("main"));
  auto Has = [&](FuncId F) {
    return std::find(Callees.begin(), Callees.end(), F) != Callees.end();
  };
  EXPECT_TRUE(Has(M->lookup("a")));
  EXPECT_TRUE(Has(M->lookup("b")));
  EXPECT_FALSE(Has(M->lookup("c")));
}

TEST(LivenessTest, SimpleRange) {
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  BasicBlock *B0 = F->newBlock("b0");
  BasicBlock *B1 = F->newBlock("b1");
  B.setBlock(B0);
  Reg A = B.emitLoadI(5);
  B.emitJmp(B1->id());
  B.setBlock(B1);
  Reg C = B.emitCopy(A);
  B.emitRet(C);
  recomputeCfg(*F);
  Liveness LV(*F);
  EXPECT_TRUE(LV.isLiveOut(B0->id(), A));
  EXPECT_TRUE(LV.isLiveIn(B1->id(), A));
  EXPECT_FALSE(LV.isLiveIn(B0->id(), A));
}

} // namespace
