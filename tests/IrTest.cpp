//===- tests/IrTest.cpp - IR construction/printing/verifier tests ---------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

TEST(TagTest, Creation) {
  TagTable T;
  TagId G = T.createGlobal("g", 8, true, MemType::I64);
  TagId A = T.createGlobal("A", 80, false, MemType::I64);
  TagId H = T.createHeap("heap.0");
  EXPECT_TRUE(T.tag(G).IsScalar);
  EXPECT_FALSE(T.tag(A).IsScalar);
  EXPECT_TRUE(T.tag(H).AddressTaken);
  EXPECT_EQ(T.tag(G).Kind, TagKind::Global);
  EXPECT_EQ(T.size(), 3u);
}

TEST(TagSetTest, SortedUnique) {
  TagSet S;
  EXPECT_TRUE(S.insert(5));
  EXPECT_TRUE(S.insert(1));
  EXPECT_FALSE(S.insert(5));
  EXPECT_TRUE(S.insert(3));
  std::vector<TagId> V(S.begin(), S.end());
  EXPECT_EQ(V, (std::vector<TagId>{1, 3, 5}));
  EXPECT_TRUE(S.contains(3));
  EXPECT_FALSE(S.contains(2));
  EXPECT_EQ(S.singleton(), NoTag);
  TagSet One{7};
  EXPECT_EQ(One.singleton(), 7u);
}

TEST(TagSetTest, UnionWith) {
  TagSet A{1, 2};
  TagSet B{2, 3};
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.size(), 3u);
  EXPECT_FALSE(A.unionWith(B));
}

/// Builds: int f() { return g + g; } with g a global scalar.
TEST(IRBuilderTest, BuildAndPrint) {
  Module M;
  TagId G = M.tags().createGlobal("g", 8, true, MemType::I64);
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  Reg A = B.emitScalarLoad(G);
  Reg C = B.emitScalarLoad(G);
  Reg S = B.emitBin(Opcode::Add, A, C, RegType::Int);
  B.emitRet(S);

  std::string Err;
  EXPECT_TRUE(verifyFunction(M, *F, Err)) << Err;
  std::string Text = printFunction(M, *F);
  EXPECT_NE(Text.find("SLD [g]"), std::string::npos);
  EXPECT_NE(Text.find("ADD"), std::string::npos);
  EXPECT_NE(Text.find("RET"), std::string::npos);
}

TEST(VerifierTest, CatchesMissingTerminator) {
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(false, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  B.emitLoadI(1);
  std::string Err;
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesBadBranchTarget) {
  Module M;
  Function *F = M.addFunction("f");
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  Reg C = B.emitLoadI(1);
  B.emitBr(C, 0, 7); // block 7 does not exist
  std::string Err;
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("target"), std::string::npos);
}

TEST(VerifierTest, CatchesScalarOpOnArrayTag) {
  Module M;
  TagId A = M.tags().createGlobal("A", 80, false, MemType::I64);
  Function *F = M.addFunction("f");
  BasicBlock *BB = F->newBlock("entry");
  Instruction I(Opcode::ScalarLoad);
  I.Tag = A;
  I.Result = F->newReg(RegType::Int);
  BB->append(std::move(I));
  Instruction R(Opcode::Ret);
  BB->append(std::move(R));
  std::string Err;
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("non-scalar"), std::string::npos);
}

TEST(VerifierTest, CatchesUndefinedTagOnMemoryOp) {
  Module M;
  TagId G = M.tags().createGlobal("g", 8, true, MemType::I64);
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  Reg A = B.emitLoadAddr(G);
  Reg V = B.emitLoad(A, MemType::I64, TagSet{G});
  B.emitRet(V);
  // Point the load's tag list at a tag id the table never handed out.
  F->block(0)->insts()[1]->Tags = TagSet{static_cast<TagId>(99)};
  std::string Err;
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("nonexistent tag"), std::string::npos) << Err;
}

TEST(VerifierTest, CatchesCallModRefNamingNonexistentTag) {
  Module M;
  M.declareBuiltins();
  Function *Callee = M.addFunction("leaf");
  Callee->setReturn(false, RegType::Int);
  {
    IRBuilder B(M, Callee);
    B.setBlock(Callee->newBlock("entry"));
    B.emitRet();
  }
  Function *F = M.addFunction("f");
  F->setReturn(false, RegType::Int);
  IRBuilder B(M, F);
  B.setBlock(F->newBlock("entry"));
  B.emitCall(Callee, {});
  B.emitRet();
  F->block(0)->insts()[0]->Mods = TagSet{static_cast<TagId>(123)};
  std::string Err;
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("MOD list"), std::string::npos) << Err;

  F->block(0)->insts()[0]->Mods.clear();
  F->block(0)->insts()[0]->Refs = TagSet{static_cast<TagId>(123)};
  Err.clear();
  EXPECT_FALSE(verifyFunction(M, *F, Err));
  EXPECT_NE(Err.find("REF list"), std::string::npos) << Err;
}

TEST(VerifierTest, UseBeforeDefIsOptIn) {
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  BasicBlock *BB = F->newBlock("entry");
  Reg R = F->newReg(RegType::Int);
  Instruction Ret(Opcode::Ret);
  Ret.Ops.push_back(R); // returns a register nothing ever defined
  BB->append(std::move(Ret));
  std::string Err;
  // Structurally fine: the register is in range.
  EXPECT_TRUE(verifyFunction(M, *F, Err)) << Err;
  // The dataflow check catches it.
  VerifyOptions VO;
  VO.CheckDefBeforeUse = true;
  EXPECT_FALSE(verifyFunction(M, *F, Err, VO));
  EXPECT_NE(Err.find("used before def"), std::string::npos) << Err;
}

TEST(VerifierTest, DefOnOnePathOnlyIsCaught) {
  // r1 is defined on the then-path only, then used at the join.
  Module M;
  Function *F = M.addFunction("f");
  F->setReturn(true, RegType::Int);
  IRBuilder B(M, F);
  BasicBlock *Entry = F->newBlock("entry");
  BasicBlock *Then = F->newBlock("then");
  BasicBlock *Join = F->newBlock("join");
  B.setBlock(Entry);
  Reg C = B.emitLoadI(1);
  B.emitBr(C, Then->id(), Join->id());
  B.setBlock(Then);
  Reg V = B.emitLoadI(42);
  B.emitJmp(Join->id());
  B.setBlock(Join);
  Instruction Ret(Opcode::Ret);
  Ret.Ops.push_back(V);
  Join->append(std::move(Ret));
  std::string Err;
  VerifyOptions VO;
  VO.CheckDefBeforeUse = true;
  EXPECT_FALSE(verifyFunction(M, *F, Err, VO));
  EXPECT_NE(Err.find("used before def"), std::string::npos) << Err;
}

/// Every per-opcode fact, written out literally so a table refactor cannot
/// move one unnoticed. Row order is enum order.
enum class ResultRule { Must, MustNot, Either };

struct OpcodeFacts {
  Opcode Op;
  const char *Name;
  int NumOps; ///< -1: variable
  ResultRule Result;
  bool Term, Call, Load, Store, Mem, PtrMem, Pure, Comm;
};

constexpr ResultRule Def = ResultRule::Must;
constexpr ResultRule NoDef = ResultRule::MustNot;
constexpr ResultRule AnyDef = ResultRule::Either;

// clang-format off
const OpcodeFacts AllOpcodeFacts[] = {
  //  op                    name      ops res     term   call   load   store  mem    ptr    pure   comm
  {Opcode::Add,          "ADD",    2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::Sub,          "SUB",    2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Mul,          "MUL",    2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::Div,          "DIV",    2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Rem,          "REM",    2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::And,          "AND",    2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::Or,           "OR",     2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::Xor,          "XOR",    2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::Shl,          "SHL",    2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Shr,          "SHR",    2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::CmpEq,        "CMPEQ",  2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::CmpNe,        "CMPNE",  2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::CmpLt,        "CMPLT",  2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::CmpLe,        "CMPLE",  2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::CmpGt,        "CMPGT",  2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::CmpGe,        "CMPGE",  2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FAdd,         "FADD",   2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::FSub,         "FSUB",   2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FMul,         "FMUL",   2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::FDiv,         "FDIV",   2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FCmpEq,       "FCMPEQ", 2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::FCmpNe,       "FCMPNE", 2, Def,    false, false, false, false, false, false, true,  true },
  {Opcode::FCmpLt,       "FCMPLT", 2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FCmpLe,       "FCMPLE", 2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FCmpGt,       "FCMPGT", 2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FCmpGe,       "FCMPGE", 2, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Neg,          "NEG",    1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Not,          "NOT",    1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FNeg,         "FNEG",   1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::IntToFp,      "I2D",    1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::FpToInt,      "D2I",    1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::LoadI,        "LOADI",  0, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::LoadF,        "LOADF",  0, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::Copy,         "CP",     1, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::LoadAddr,     "LDA",    0, Def,    false, false, false, false, false, false, true,  false},
  {Opcode::ConstLoad,    "CLD",    1, Def,    false, false, true,  false, true,  true,  false, false},
  {Opcode::ScalarLoad,   "SLD",    0, Def,    false, false, true,  false, true,  false, false, false},
  {Opcode::ScalarStore,  "SST",    1, NoDef,  false, false, false, true,  true,  false, false, false},
  {Opcode::Load,         "PLD",    1, Def,    false, false, true,  false, true,  true,  false, false},
  {Opcode::Store,        "PST",    2, NoDef,  false, false, false, true,  true,  true,  false, false},
  {Opcode::Call,         "JSR",   -1, AnyDef, false, true,  false, false, false, false, false, false},
  {Opcode::CallIndirect, "IJSR",  -1, AnyDef, false, true,  false, false, false, false, false, false},
  {Opcode::Br,           "BR",     1, NoDef,  true,  false, false, false, false, false, false, false},
  {Opcode::Jmp,          "JMP",    0, NoDef,  true,  false, false, false, false, false, false, false},
  {Opcode::Ret,          "RET",   -1, AnyDef, true,  false, false, false, false, false, false, false},
  {Opcode::Phi,          "PHI",    0, Def,    false, false, false, false, false, false, false, false},
};
// clang-format on

/// A one-instruction function: \p Op with \p NumOps operands (r0.., all in
/// range) and a result register when \p WithResult, followed by a RET unless
/// \p Op is itself a terminator. Returns the verifier's diagnostics.
std::string verifyShape(Opcode Op, size_t NumOps, bool WithResult,
                        std::string *PrintedInst = nullptr) {
  Module M;
  Function *F = M.addFunction("f");
  BasicBlock *BB = F->newBlock("entry");
  for (int K = 0; K != 4; ++K)
    F->newReg(RegType::Int);
  Instruction I(Op);
  for (size_t K = 0; K != NumOps; ++K)
    I.Ops.push_back(static_cast<Reg>(K));
  if (WithResult)
    I.Result = F->newReg(RegType::Int);
  if (PrintedInst)
    *PrintedInst = printInst(M, *F, I);
  BB->append(std::move(I));
  if (!isTerminator(Op))
    BB->append(Instruction(Opcode::Ret));
  std::string Err;
  verifyFunction(M, *F, Err);
  return Err;
}

bool mentionsShape(const std::string &Err) {
  return Err.find("operand(s)") != std::string::npos ||
         Err.find("define a result register") != std::string::npos;
}

bool hasLine(const std::string &Err, const std::string &Line) {
  return ("\n" + Err).find("\n" + Line + "\n") != std::string::npos;
}

TEST(OpcodeTest, FactsArePinned) {
  ASSERT_EQ(NumOpcodes, 46u);
  ASSERT_EQ(std::size(AllOpcodeFacts), NumOpcodes);
  for (size_t K = 0; K != NumOpcodes; ++K) {
    const OpcodeFacts &E = AllOpcodeFacts[K];
    SCOPED_TRACE(E.Name);
    EXPECT_EQ(static_cast<size_t>(E.Op), K);
    EXPECT_STREQ(opcodeName(E.Op), E.Name);
    EXPECT_EQ(isTerminator(E.Op), E.Term);
    EXPECT_EQ(isCallOp(E.Op), E.Call);
    EXPECT_EQ(isLoadOp(E.Op), E.Load);
    EXPECT_EQ(isStoreOp(E.Op), E.Store);
    EXPECT_EQ(isMemOp(E.Op), E.Mem);
    EXPECT_EQ(isPointerMemOp(E.Op), E.PtrMem);
    EXPECT_EQ(isPureOp(E.Op), E.Pure);
    EXPECT_EQ(isCommutative(E.Op), E.Comm);

    // Operand count and result rule, as the verifier enforces them: the
    // accepted shapes draw no shape diagnostic.
    std::vector<size_t> Counts;
    if (E.NumOps >= 0)
      Counts.push_back(static_cast<size_t>(E.NumOps));
    else
      Counts = {0, 1, 2, 3};
    std::vector<bool> Results;
    if (E.Result != ResultRule::MustNot)
      Results.push_back(true);
    if (E.Result != ResultRule::Must)
      Results.push_back(false);
    for (size_t N : Counts)
      for (bool WithResult : Results)
        EXPECT_FALSE(mentionsShape(verifyShape(E.Op, N, WithResult)))
            << N << " operand(s), result " << WithResult << ":\n"
            << verifyShape(E.Op, N, WithResult);
  }
}

TEST(VerifierTest, RejectsWrongShapeForEveryOpcode) {
  for (const OpcodeFacts &E : AllOpcodeFacts) {
    if (E.NumOps < 0)
      continue;
    SCOPED_TRACE(E.Name);
    size_t N = static_cast<size_t>(E.NumOps);
    bool Defines = E.Result == ResultRule::Must;

    std::string Inst;
    std::string Err = verifyShape(E.Op, N + 1, Defines, &Inst);
    EXPECT_TRUE(hasLine(Err, "verify: f: B0: '" + Inst + "': expected " +
                                 std::to_string(N) + " operand(s), found " +
                                 std::to_string(N + 1)))
        << Err;

    Err = verifyShape(E.Op, N, !Defines, &Inst);
    EXPECT_TRUE(hasLine(Err, "verify: f: B0: '" + Inst +
                                 (Defines ? "': instruction must define a "
                                            "result register"
                                          : "': instruction must not define "
                                            "a result register")))
        << Err;
  }
}

TEST(FunctionTest, RemoveBlocksRemapsTargets) {
  Module M;
  Function *F = M.addFunction("f");
  IRBuilder B(M, F);
  BasicBlock *B0 = F->newBlock("b0");
  BasicBlock *B1 = F->newBlock("dead");
  BasicBlock *B2 = F->newBlock("b2");
  B.setBlock(B0);
  B.emitJmp(B2->id());
  B.setBlock(B1);
  B.emitRet();
  B.setBlock(B2);
  B.emitRet();

  std::vector<bool> Dead = {false, true, false};
  F->removeBlocks(Dead);
  ASSERT_EQ(F->numBlocks(), 2u);
  EXPECT_EQ(F->block(0)->terminator()->Target0, 1u);
  std::string Err;
  EXPECT_TRUE(verifyFunction(M, *F, Err)) << Err;
}

TEST(ModuleTest, BuiltinsDeclared) {
  Module M;
  M.declareBuiltins();
  FuncId Malloc = M.lookup("malloc");
  ASSERT_NE(Malloc, NoFunc);
  EXPECT_TRUE(M.function(Malloc)->isBuiltin());
  EXPECT_TRUE(M.function(Malloc)->returnsValue());
  EXPECT_NE(M.lookup("pow"), NoFunc);
  EXPECT_EQ(M.function(M.lookup("pow"))->paramRegs().size(), 2u);
}

} // namespace
