//===- tests/RegAllocTest.cpp - Chaitin-Briggs allocator tests ------------===//

#include "alias/ModRef.h"
#include "analysis/Cfg.h"
#include "analysis/CfgNormalize.h"
#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "frontend/Lowering.h"
#include "fuzz/ProgramGenerator.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "promote/ScalarPromotion.h"
#include "regalloc/GraphColoring.h"
#include "regalloc/Liverange.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

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

/// Checks that all register indices are below the physical total
/// (K integer + K float registers).
void expectPhysical(const Module &M, unsigned TotalRegs) {
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    const Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || !F->numBlocks())
      continue;
    for (const auto &B : F->blocks())
      for (const auto &IP : B->insts()) {
        if (IP->hasResult()) {
          EXPECT_LT(IP->Result, TotalRegs);
        }
        for (Reg R : IP->Ops) {
          EXPECT_LT(R, TotalRegs);
        }
      }
  }
}

TEST(InterferenceTest, CopySourceDoesNotInterfere) {
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  Reg A = B.emitLoadI(1);
  Reg C = B.emitCopy(A); // A dies here
  B.emitRet(C);
  recomputeCfg(*F);
  InterferenceGraph IG(*F);
  EXPECT_FALSE(IG.interfere(A, C));
  ASSERT_EQ(IG.copies().size(), 1u);
  EXPECT_EQ(IG.copies()[0].Dst, C);
  EXPECT_EQ(IG.copies()[0].Src, A);
}

TEST(InterferenceTest, OverlappingValuesInterfere) {
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  Reg A = B.emitLoadI(1);
  Reg C = B.emitLoadI(2);
  Reg S = B.emitBin(Opcode::Add, A, C, RegType::Int);
  B.emitRet(S);
  recomputeCfg(*F);
  InterferenceGraph IG(*F);
  EXPECT_TRUE(IG.interfere(A, C));
}

/// The interference graph of \p F computed the slow, obvious way: per-block
/// std::set liveness iterated to a fixpoint, then a backward walk over each
/// block adding an edge from every definition to everything live across it
/// (minus a copy's source), plus parameter-vs-entry-live-in edges, into a
/// plain N x N adjacency matrix. Every register is read through \p Rep, and
/// a copy between two registers that share a representative is skipped —
/// so with a coalescing map this is the graph of the function with each
/// merged register renamed and its copies deleted.
struct NaiveGraph {
  std::vector<char> Node;
  std::vector<std::vector<char>> Adj;
  std::vector<std::pair<Reg, Reg>> Copies;

  explicit NaiveGraph(size_t N)
      : Node(N, 0), Adj(N, std::vector<char>(N, 0)) {}

  NaiveGraph(const Function &F, const std::vector<Reg> &Rep)
      : NaiveGraph(F.numRegs()) {
    // Only copies the merges made trivial are deleted; a self-copy the
    // optimizer left behind is still a definition when the graph is built.
    auto IsIdentityCopy = [&](const Instruction &I) {
      return I.Op == Opcode::Copy && I.Result != I.Ops[0] &&
             Rep[I.Result] == Rep[I.Ops[0]];
    };
    const size_t NB = F.numBlocks();
    std::vector<std::set<Reg>> In(NB), Out(NB);
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (size_t BI = NB; BI-- > 0;) {
        const BasicBlock *B = F.block(static_cast<BlockId>(BI));
        std::set<Reg> Live;
        for (BlockId S : B->succs())
          Live.insert(In[S].begin(), In[S].end());
        Out[BI] = Live;
        const auto &Insts = B->insts();
        for (size_t Idx = Insts.size(); Idx-- > 0;) {
          const Instruction &I = *Insts[Idx];
          if (IsIdentityCopy(I))
            continue;
          if (I.hasResult())
            Live.erase(Rep[I.Result]);
          for (Reg U : I.Ops)
            Live.insert(Rep[U]);
        }
        if (Live != In[BI]) {
          In[BI] = std::move(Live);
          Changed = true;
        }
      }
    }
    for (Reg P : F.paramRegs()) {
      Node[Rep[P]] = 1;
      for (Reg L : In[0])
        addEdge(Rep[P], L);
    }
    for (const auto &B : F.blocks()) {
      std::set<Reg> Live = Out[B->id()];
      const auto &Insts = B->insts();
      for (size_t Idx = Insts.size(); Idx-- > 0;) {
        const Instruction &I = *Insts[Idx];
        if (IsIdentityCopy(I))
          continue;
        if (I.hasResult()) {
          Reg D = Rep[I.Result];
          Node[D] = 1;
          bool IsCopy = I.Op == Opcode::Copy;
          if (IsCopy)
            Copies.push_back({I.Result, I.Ops[0]});
          for (Reg L : Live)
            if (!IsCopy || L != Rep[I.Ops[0]])
              addEdge(D, L);
          Live.erase(D);
        }
        for (Reg U : I.Ops) {
          Node[Rep[U]] = 1;
          Live.insert(Rep[U]);
        }
      }
    }
  }

  void addEdge(Reg X, Reg Y) {
    if (X != Y)
      Adj[X][Y] = Adj[Y][X] = 1;
  }

  /// This graph with every register replaced by its representative under
  /// \p Rep: a merged live range's node carries the union of its members'
  /// edges.
  NaiveGraph quotient(const std::vector<Reg> &Rep) const {
    NaiveGraph Q(Node.size());
    for (Reg R = 0; R != Node.size(); ++R) {
      if (!Node[R])
        continue;
      Q.Node[Rep[R]] = 1;
      for (Reg S = 0; S != Node.size(); ++S)
        if (Adj[R][S])
          Q.addEdge(Rep[R], Rep[S]);
    }
    return Q;
  }
};

/// Asserts that \p IG agrees with the naive graph on every live node.
void expectGraphMatches(const InterferenceGraph &IG, const NaiveGraph &Ref,
                        const Function &F, const std::string &Where) {
  ASSERT_EQ(IG.numNodes(), Ref.Node.size()) << Where;
  for (Reg R = 0; R != IG.numNodes(); ++R) {
    ASSERT_EQ(IG.isLive(R), Ref.Node[R] != 0) << Where << " r" << R;
    if (!Ref.Node[R])
      continue;
    std::vector<Reg> Got, Want;
    unsigned ClassDeg = 0;
    IG.forEachNeighbor(R, false, [&](Reg Nb) { Got.push_back(Nb); });
    for (Reg S = 0; S != IG.numNodes(); ++S)
      if (Ref.Adj[R][S]) {
        Want.push_back(S);
        ClassDeg += F.regType(S) == F.regType(R);
        ASSERT_TRUE(IG.interfere(R, S)) << Where << " r" << R << " r" << S;
      }
    ASSERT_EQ(Got, Want) << Where << " neighbors of r" << R;
    ASSERT_EQ(IG.degree(R), Want.size()) << Where << " r" << R;
    ASSERT_EQ(IG.classDegree(R), ClassDeg) << Where << " r" << R;
  }
}

// The bit-matrix graph equals the naive reference on generated programs,
// as built and after every merge a coalescing sweep can make. Every copy
// whose endpoints are distinct, same-class and non-interfering is merged —
// a superset of the conservative merges coalesce() makes.
//
// After a merge the graph must equal the reference's quotient (the merged
// node carries the union of its members' edges), and every edge of the
// reference rebuilt on the rewritten function (B renamed to A, identity
// copies deleted) must be in it, so coloring the merged graph without a
// rebuild is sound. The two are not always equal: a rebuild applies the
// copy refinement to every copy that reads the merged node, so in
// `x <- cp b; a <- cp b; ... x ... a` the x-a edge made at a's definition
// is gone once b folds into a and `x <- cp a` is what is left. Generated
// seed 11 has that shape, so the superset is asserted, not equality.
TEST(InterferenceTest, MatchesNaiveReferenceOnGeneratedPrograms) {
  unsigned Merges = 0, LooserThanRebuild = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    CompilerConfig Cfg;
    Cfg.RegisterAllocation = false;
    CompileOutput Out = compileProgram(generateProgram(Seed), Cfg);
    ASSERT_TRUE(Out.Ok) << Seed << ": " << Out.Errors;
    for (size_t FI = 0; FI != Out.M->numFunctions(); ++FI) {
      Function &F = *Out.M->function(static_cast<FuncId>(FI));
      if (F.isBuiltin() || !F.numBlocks())
        continue;
      recomputeCfg(F);
      const std::string Where =
          "seed " + std::to_string(Seed) + " " + F.name();
      std::vector<Reg> Rep(F.numRegs());
      for (Reg R = 0; R != F.numRegs(); ++R)
        Rep[R] = R;
      InterferenceGraph IG(F);
      const NaiveGraph Ref(F, Rep);
      ASSERT_NO_FATAL_FAILURE(expectGraphMatches(IG, Ref, F, Where));
      ASSERT_EQ(IG.copies().size(), Ref.Copies.size()) << Where;
      for (size_t CI = 0; CI != Ref.Copies.size(); ++CI) {
        EXPECT_EQ(IG.copies()[CI].Dst, Ref.Copies[CI].first) << Where;
        EXPECT_EQ(IG.copies()[CI].Src, Ref.Copies[CI].second) << Where;
      }

      for (const auto &C : IG.copies()) {
        Reg A = Rep[C.Dst], B = Rep[C.Src];
        if (A == B || IG.interfere(A, B) || F.regType(A) != F.regType(B))
          continue;
        IG.merge(A, B, C.Weight);
        for (Reg &R : Rep)
          if (R == B)
            R = A;
        ++Merges;
        const std::string After = Where + " after merging r" +
                                  std::to_string(B) + " into r" +
                                  std::to_string(A);
        const NaiveGraph Merged = Ref.quotient(Rep);
        ASSERT_NO_FATAL_FAILURE(expectGraphMatches(IG, Merged, F, After));
        const NaiveGraph Rebuilt(F, Rep);
        ASSERT_EQ(Rebuilt.Node, Merged.Node) << After;
        for (Reg R = 0; R != IG.numNodes(); ++R)
          for (Reg S = 0; S != IG.numNodes(); ++S)
            ASSERT_TRUE(!Rebuilt.Adj[R][S] || Merged.Adj[R][S])
                << After << ": rebuild has r" << R << "-r" << S;
        LooserThanRebuild += Merged.Adj != Rebuilt.Adj;
      }
    }
  }
  EXPECT_GT(Merges, 200u) << "the generator should yield coalescable copies";
  EXPECT_GT(LooserThanRebuild, 0u)
      << "no merge kept an edge a rebuild drops; if that is now impossible, "
         "assert equality with the rebuild instead";
}

TEST(RegAllocTest, ColorsSimpleFunctionWithoutSpills) {
  auto M = compileSrc("int main() { int a; int b; a = 3; b = 4;\n"
                      "  return a * b + a - b; }");
  RegAllocStats S = allocateRegisters(*M);
  expectPhysical(*M, 64);
  EXPECT_EQ(S.SpilledRegs, 0u);
  std::string Err;
  EXPECT_TRUE(verifyModule(*M, Err)) << Err;
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(RegAllocTest, TinyRegisterFileForcesSpills) {
  // Twelve simultaneously-live runtime values (not rematerializable
  // constants) cannot fit in 6 registers.
  auto M = compileSrc(
      "int s = 1;\n"
      "int main() {\n"
      "  int a; int b; int c; int d; int e; int f;\n"
      "  int g; int h; int i; int j; int k; int l;\n"
      "  a=s+1; b=s+2; c=s+3; d=s+4; e=s+5; f=s+6;\n"
      "  g=s+7; h=s+8; i=s+9; j=s+10; k=s+11; l=s+12;\n"
      "  return ((a+b)*(c+d)+(e+f)*(g+h))*((i+j)*(k+l)+(a+l)*(b+k)); }");
  ExecResult Before = interpret(*M);
  RegAllocOptions Opts;
  Opts.NumRegisters = 6;
  RegAllocStats S = allocateRegisters(*M, Opts);
  expectPhysical(*M, 12);
  EXPECT_GT(S.SpilledRegs, 0u);
  EXPECT_GT(S.SpillLoads, 0u);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
  // Spilling adds real memory traffic.
  EXPECT_GT(After.Counters.Loads, Before.Counters.Loads);
}

TEST(RegAllocTest, CoalescesPromotionCopies) {
  auto M = compileSrc("int g;\n"
                      "int main() { int i;\n"
                      "  for (i = 0; i < 50; i++) g = g + 1;\n"
                      "  return g; }");
  promoteScalars(*M);
  unsigned CopiesBefore = 0;
  for (const auto &B : M->function(M->lookup("main"))->blocks())
    for (const auto &IP : B->insts())
      CopiesBefore += IP->Op == Opcode::Copy;
  ASSERT_GT(CopiesBefore, 0u) << "promotion should introduce copies";

  RegAllocStats S = allocateRegisters(*M);
  EXPECT_GT(S.CoalescedCopies, 0u);
  unsigned CopiesAfter = 0;
  for (const auto &B : M->function(M->lookup("main"))->blocks())
    for (const auto &IP : B->insts())
      CopiesAfter += IP->Op == Opcode::Copy;
  EXPECT_LT(CopiesAfter, CopiesBefore)
      << "the allocator is 'quite effective at eliminating copies like "
         "these' (paper, footnote 1)";
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 50);
}

TEST(RegAllocTest, RecursiveFunctionSurvivesAllocation) {
  auto M = compileSrc("int fact(int n) { if (n < 2) return 1;\n"
                      "  return n * fact(n - 1); }\n"
                      "int main() { return fact(6); }");
  allocateRegisters(*M);
  expectPhysical(*M, 64);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 720);
}

TEST(RegAllocTest, FloatsAndIntsShareTheFile) {
  auto M = compileSrc("int main() { float a; float b; int c;\n"
                      "  a = 1.5; b = 2.5; c = 3;\n"
                      "  return (int)(a + b) + c; }");
  allocateRegisters(*M);
  ExecResult R = interpret(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(RegAllocTest, SpilledParametersStoredOnEntry) {
  // Force tiny K so parameters spill.
  auto M = compileSrc(
      "int f(int p0, int p1, int p2, int p3, int p4, int p5, int p6) {\n"
      "  int a; int b; int c;\n"
      "  a = p0 + p1; b = p2 + p3; c = p4 + p5;\n"
      "  return (a * b + c) * p6 + p0 + p1 + p2 + p3 + p4 + p5; }\n"
      "int main() { return f(1, 2, 3, 4, 5, 6, 2); }");
  ExecResult Before = interpret(*M);
  RegAllocOptions Opts;
  Opts.NumRegisters = 5;
  allocateRegisters(*M, Opts);
  // Arguments travel in registers, so the 7-argument call clamps the
  // effective per-class file to 8 (16 physical registers).
  expectPhysical(*M, 16);
  ExecResult After = interpret(*M);
  ASSERT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(Before.ExitCode, After.ExitCode);
}

TEST(RegAllocTest, PressureSweepPreservesSemantics) {
  const char *Src =
      "int A[16]; int g;\n"
      "int main() { int i; int j; int s; s = 0;\n"
      "  for (i = 0; i < 16; i++) A[i] = i * 3 % 7;\n"
      "  for (i = 0; i < 16; i++)\n"
      "    for (j = 0; j < 16; j++)\n"
      "      s = s + A[i] * A[j] + (i - j);\n"
      "  g = s; return g % 251; }";
  int64_t Expected = -1;
  for (unsigned K : {4u, 6u, 8u, 12u, 16u, 32u}) {
    auto M = compileSrc(Src);
    promoteScalars(*M);
    RegAllocOptions Opts;
    Opts.NumRegisters = K;
    allocateRegisters(*M, Opts);
    expectPhysical(*M, 2 * K);
    ExecResult R = interpret(*M);
    ASSERT_TRUE(R.Ok) << "K=" << K << ": " << R.Error;
    if (Expected < 0)
      Expected = R.ExitCode;
    EXPECT_EQ(R.ExitCode, Expected) << "K=" << K;
  }
}

/// FNV-1a, 64-bit.
void fnv1a(uint64_t &H, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
}

// Pins the allocator's output over the benchmark corpus: every program x
// {modref, points-to} x K in {4, 8, 16, 32} x {modern, classic} allocator x
// promotion on/off, hashing the printed module and every RegAllocStats
// field. Any change to colors, coalescing, spill choice, fresh-register or
// spill-tag numbering, or instruction order moves the hash.
//
// A change that means to alter allocation regenerates the constant: run
//   ./tests/regalloc_test --gtest_filter='*AllocationIsPinned'
// read the "got" value from the failure message, check the new allocation
// against the suite (rpcc --suite counts) and the fuzz campaigns, and paste
// the value into Expected below.
TEST(RegAllocTest, BenchCorpusAllocationIsPinned) {
  const uint64_t Expected = 0x20c6abe7d86aa3d7ULL;
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const std::string &Name : benchProgramNames()) {
    FrontendArtifact FA = runFrontend(loadBenchProgram(Name));
    ASSERT_TRUE(FA.Ok) << Name << ": " << FA.Errors;
    for (AnalysisKind Kind : {AnalysisKind::ModRef, AnalysisKind::PointsTo}) {
      AnalyzedModule AM = analyzeFrontend(FA, Kind);
      ASSERT_TRUE(AM.Ok) << Name << ": " << AM.Errors;
      for (unsigned K : {4u, 8u, 16u, 32u})
        for (bool Classic : {false, true})
          for (bool Promote : {true, false}) {
            CompilerConfig Cfg;
            Cfg.Analysis = Kind;
            Cfg.NumRegisters = K;
            Cfg.ClassicAllocator = Classic;
            Cfg.ScalarPromotion = Promote;
            CompileOutput Out = compileSuffix(AM, Cfg);
            ASSERT_TRUE(Out.Ok) << Name << ": " << Out.Errors;
            const RegAllocStats &S = Out.Stats.RegAlloc;
            fnv1a(H, printModule(*Out.M));
            for (unsigned V : {S.CoalescedCopies, S.SpilledRegs,
                               S.RematerializedRegs, S.SpillLoads,
                               S.SpillStores, S.Rounds, S.ColorsUsed})
              fnv1a(H, std::to_string(V) + ";");
          }
    }
  }
  EXPECT_EQ(H, Expected) << "got 0x" << std::hex << H;
}

} // namespace
