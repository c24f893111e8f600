//===- ir/Verifier.cpp ----------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/IRPrinter.h"

#include <sstream>

using namespace rpcc;

namespace {

class FunctionVerifier {
public:
  FunctionVerifier(const Module &M, const Function &F, std::string &Err,
                   const VerifyOptions &Opts)
      : M(M), F(F), Err(Err), Opts(Opts) {}

  bool run() {
    if (F.numBlocks() == 0) {
      fail("function has no blocks");
      return Ok;
    }
    for (const auto &B : F.blocks())
      checkBlock(*B);
    if (Ok && Opts.CheckDefBeforeUse)
      checkDefBeforeUse();
    return Ok;
  }

private:
  void fail(const std::string &Msg) {
    std::ostringstream OS;
    OS << "verify: " << F.name() << ": " << Msg << "\n";
    Err += OS.str();
    Ok = false;
  }

  void failInst(const BasicBlock &B, const Instruction &I,
                const std::string &Msg) {
    std::ostringstream OS;
    OS << "B" << B.id() << ": '" << printInst(M, F, I) << "': " << Msg;
    fail(OS.str());
  }

  void checkReg(const BasicBlock &B, const Instruction &I, Reg R) {
    if (R == NoReg || R >= F.numRegs())
      failInst(B, I, "register out of range");
  }

  void checkTarget(const BasicBlock &B, const Instruction &I, BlockId T) {
    if (T == NoBlock || T >= F.numBlocks())
      failInst(B, I, "branch target out of range");
  }

  void checkTagId(const BasicBlock &B, const Instruction &I, TagId T,
                  const char *What) {
    if (T == NoTag || T >= M.tags().size())
      failInst(B, I, std::string(What) + " names a nonexistent tag");
  }

  void checkTagSet(const BasicBlock &B, const Instruction &I, const TagSet &S,
                   const char *What) {
    for (TagId T : S)
      checkTagId(B, I, T, What);
  }

  void checkBlock(const BasicBlock &B) {
    if (B.empty()) {
      fail("block B" + std::to_string(B.id()) + " is empty");
      return;
    }
    bool SeenNonPhi = false;
    for (size_t Idx = 0; Idx != B.size(); ++Idx) {
      const Instruction &I = *B.insts()[Idx];
      bool Last = Idx + 1 == B.size();
      if (isTerminator(I.Op) && !Last)
        failInst(B, I, "terminator in the middle of a block");
      if (Last && !isTerminator(I.Op))
        failInst(B, I, "block does not end in a terminator");
      if (I.Op == Opcode::Phi) {
        if (SeenNonPhi)
          failInst(B, I, "phi after non-phi instruction");
      } else {
        SeenNonPhi = true;
      }
      checkInst(B, I);
    }
  }

  void checkInst(const BasicBlock &B, const Instruction &I) {
    // The engines index Ops[] blindly, so this shape check is the only
    // thing between a malformed instruction and out-of-bounds reads.
    const OpcodeInfo &Info = opcodeInfo(I.Op);
    if (Info.NumOps >= 0 && I.Ops.size() != static_cast<size_t>(Info.NumOps))
      failInst(B, I, "expected " + std::to_string(Info.NumOps) +
                         " operand(s), found " + std::to_string(I.Ops.size()));
    if (Info.Result == OpResult::Def && !I.hasResult())
      failInst(B, I, "instruction must define a result register");
    if (Info.Result == OpResult::None && I.hasResult())
      failInst(B, I, "instruction must not define a result register");

    if (I.hasResult())
      checkReg(B, I, I.Result);
    for (Reg R : I.Ops)
      checkReg(B, I, R);
    if (isPointerMemOp(I.Op))
      checkTagSet(B, I, I.Tags, "tag list");

    switch (I.Op) {
    case Opcode::ScalarLoad:
    case Opcode::ScalarStore: {
      if (I.Tag == NoTag || I.Tag >= M.tags().size()) {
        failInst(B, I, "invalid tag");
        break;
      }
      if (!M.tags().tag(I.Tag).IsScalar)
        failInst(B, I, "scalar memory op on non-scalar tag");
      break;
    }
    case Opcode::LoadAddr:
      if (I.Tag == NoTag || I.Tag >= M.tags().size())
        failInst(B, I, "invalid tag");
      break;
    case Opcode::Call: {
      if (I.Callee == NoFunc || I.Callee >= M.numFunctions()) {
        failInst(B, I, "invalid callee");
        break;
      }
      const Function *Callee = M.function(I.Callee);
      if (I.Ops.size() != Callee->paramRegs().size())
        failInst(B, I, "call arity mismatch");
      if (Callee->returnsValue() != I.hasResult())
        failInst(B, I, "call result mismatch with callee return type");
      checkTagSet(B, I, I.Mods, "call MOD list");
      checkTagSet(B, I, I.Refs, "call REF list");
      if (I.Tag != NoTag)
        checkTagId(B, I, I.Tag, "allocation site");
      break;
    }
    case Opcode::CallIndirect:
      if (I.Ops.empty())
        failInst(B, I, "indirect call needs a callee operand");
      checkTagSet(B, I, I.Mods, "call MOD list");
      checkTagSet(B, I, I.Refs, "call REF list");
      for (FuncId Target : I.IndirectCallees)
        if (Target == NoFunc || Target >= M.numFunctions())
          failInst(B, I, "resolved callee list names a nonexistent function");
      break;
    case Opcode::Br:
      checkTarget(B, I, I.Target0);
      checkTarget(B, I, I.Target1);
      break;
    case Opcode::Jmp:
      checkTarget(B, I, I.Target0);
      break;
    case Opcode::Ret:
      if (F.returnsValue() && I.Ops.size() != 1)
        failInst(B, I, "missing return value");
      if (!F.returnsValue() && !I.Ops.empty())
        failInst(B, I, "unexpected return value");
      break;
    case Opcode::Phi:
      for (const auto &[Pred, R] : I.PhiIns) {
        checkTarget(B, I, Pred);
        checkReg(B, I, R);
      }
      break;
    default:
      break;
    }
  }

  /// Forward must-define dataflow: a register may only be read if every path
  /// from entry assigns it first. Runs only once the structural checks pass,
  /// so every register index is known to be in range.
  void checkDefBeforeUse() {
    size_t NR = F.numRegs(), NB = F.numBlocks();
    // Out[b] starts at "all defined" (top) and shrinks to a fixpoint.
    std::vector<std::vector<bool>> Out(NB, std::vector<bool>(NR, true));
    std::vector<bool> EntryIn(NR, false);
    for (Reg P : F.paramRegs())
      EntryIn[P] = true;

    // Predecessor lists straight from the terminators (the analysis-layer
    // CFG may be stale while verifying).
    std::vector<std::vector<BlockId>> Preds(NB);
    for (const auto &B : F.blocks()) {
      const Instruction *T = B->terminator();
      if (!T)
        continue;
      if (T->Op == Opcode::Br) {
        Preds[T->Target0].push_back(B->id());
        Preds[T->Target1].push_back(B->id());
      } else if (T->Op == Opcode::Jmp) {
        Preds[T->Target0].push_back(B->id());
      }
    }

    auto blockIn = [&](BlockId Id) {
      // The entry block executes first no matter what edges loop back into
      // it, so only parameters are definitely assigned there. Unreachable
      // blocks get the same weakest assumption rather than vacuous truth.
      if (Id == 0 || Preds[Id].empty())
        return EntryIn;
      std::vector<bool> In(NR, true);
      for (BlockId P : Preds[Id])
        for (size_t R = 0; R != NR; ++R)
          In[R] = In[R] && Out[P][R];
      return In;
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId Id = 0; Id != NB; ++Id) {
        std::vector<bool> Cur = blockIn(Id);
        for (const auto &I : F.block(Id)->insts())
          if (I->hasResult())
            Cur[I->Result] = true;
        if (Cur != Out[Id]) {
          Out[Id] = std::move(Cur);
          Changed = true;
        }
      }
    }

    for (BlockId Id = 0; Id != NB; ++Id) {
      const BasicBlock &B = *F.block(Id);
      std::vector<bool> Defined = blockIn(Id);
      // Phi results materialize at block entry, before any non-phi reads.
      for (const auto &I : B.insts()) {
        if (I->Op != Opcode::Phi)
          break;
        Defined[I->Result] = true;
      }
      for (const auto &IP : B.insts()) {
        const Instruction &I = *IP;
        if (I.Op == Opcode::Phi) {
          // A phi reads its incoming register at the end of the predecessor.
          for (const auto &[Pred, R] : I.PhiIns)
            if (!Out[Pred][R])
              failInst(B, I, "phi operand r" + std::to_string(R) +
                                 " not defined on the edge from B" +
                                 std::to_string(Pred));
          continue;
        }
        for (Reg R : I.Ops)
          if (!Defined[R])
            failInst(B, I,
                     "operand r" + std::to_string(R) + " used before def");
        if (I.hasResult())
          Defined[I.Result] = true;
      }
    }
  }

  const Module &M;
  const Function &F;
  std::string &Err;
  const VerifyOptions &Opts;
  bool Ok = true;
};

} // namespace

bool rpcc::verifyFunction(const Module &M, const Function &F, std::string &Err,
                          const VerifyOptions &Opts) {
  return FunctionVerifier(M, F, Err, Opts).run();
}

namespace {

/// Module-level structure: the tag table and the globals list. Every
/// cross-reference they hold (owner function, named function, initialized
/// tag) must be in range *before* anything dereferences it — Module's
/// accessors assert on bad ids, so a dangling reference that slipped past
/// here would be process death, not a diagnostic.
bool verifyModuleTables(const Module &M, std::string &Err) {
  bool Ok = true;
  auto Fail = [&](const std::string &Msg) {
    Ok = false;
    Err += "module: " + Msg + "\n";
  };
  const size_t NFuncs = M.numFunctions();
  for (const Tag &T : M.tags()) {
    if ((T.Kind == TagKind::Local || T.Kind == TagKind::Spill) &&
        T.Owner >= NFuncs)
      Fail("tag '" + T.Name + "' has a dangling owner func#" +
           std::to_string(T.Owner));
    if (T.Kind == TagKind::Func && T.Fn >= NFuncs)
      Fail("func tag '" + T.Name + "' names a dangling func#" +
           std::to_string(T.Fn));
  }
  const size_t NTags = M.tags().size();
  for (size_t I = 0; I != M.globals().size(); ++I)
    if (M.globals()[I].Tag >= NTags)
      Fail("global initializer #" + std::to_string(I) +
           " names a dangling tag#" + std::to_string(M.globals()[I].Tag));
  return Ok;
}

} // namespace

bool rpcc::verifyModule(const Module &M, std::string &Err,
                        const VerifyOptions &Opts) {
  bool Ok = verifyModuleTables(M, Err);
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    const Function *F = M.function(static_cast<FuncId>(I));
    if (F->isBuiltin())
      continue;
    Ok &= verifyFunction(M, *F, Err, Opts);
  }
  return Ok;
}
