//===- opt/Licm.cpp -------------------------------------------------------===//

#include "opt/Licm.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "obs/Remark.h"
#include "obs/TagProfile.h"

#include <cassert>
#include <map>

using namespace rpcc;

namespace {

/// True for pure ops that can run speculatively in the landing pad (the
/// pad executes whenever the loop is reached, even for zero iterations).
bool isSpeculable(Opcode Op) { return isPureOp(Op) && !mayTrap(Op); }

class FunctionLicm {
public:
  FunctionLicm(Function &F, const Module &M, LicmStats &Stats,
               RemarkEngine *Re)
      : F(F), M(M), Stats(Stats), Re(Re) {}

  void run() {
    recomputeCfg(F);
    LoopInfo LI(F);
    countDefs();
    // Innermost first: code hoisted to an inner pad can be hoisted again by
    // the enclosing loop's pass.
    for (int L : LI.postorder())
      processLoop(LI.loop(static_cast<size_t>(L)));
  }

private:
  void countDefs() {
    NumDefs.assign(F.numRegs(), 0);
    for (const auto &B : F.blocks())
      for (const auto &IP : B->insts())
        if (IP->hasResult())
          ++NumDefs[IP->Result];
  }

  void processLoop(const Loop &Lp) {
    if (Lp.Preheader == NoBlock)
      return;

    // Registers with a definition inside the loop.
    std::vector<bool> DefInLoop(F.numRegs(), false);
    for (BlockId B : Lp.Blocks)
      for (const auto &IP : F.block(B)->insts())
        if (IP->hasResult())
          DefInLoop[IP->Result] = true;

    // Tags possibly modified inside the loop (blocks invariant-load
    // hoisting).
    TagSet ModdedTags;
    for (BlockId B : Lp.Blocks)
      for (const auto &IP : F.block(B)->insts()) {
        const Instruction &I = *IP;
        if (I.Op == Opcode::ScalarStore)
          ModdedTags.insert(I.Tag);
        else if (I.Op == Opcode::Store)
          ModdedTags.unionWith(I.Tags);
        else if (isCallOp(I.Op))
          ModdedTags.unionWith(I.Mods);
      }

    BasicBlock *Pad = F.block(Lp.Preheader);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B : Lp.Blocks) {
        auto &Insts = F.block(B)->insts();
        for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
          Instruction &I = *Insts[Idx];
          if (!hoistable(I, DefInLoop, ModdedTags))
            continue;
          // Move to the pad, before its terminator.
          DefInLoop[I.Result] = false;
          if (isLoadOp(I.Op)) {
            ++Stats.HoistedLoads;
            if (Re)
              Re->emit("licm", RemarkKind::Hoisted, RemarkReason::None,
                       F.name(), loopDisplayName(F, Lp.Header), Lp.Depth,
                       tagDisplayName(M, I.Tag),
                       "invariant load moved to the landing pad");
          } else {
            ++Stats.HoistedPure;
          }
          Pad->insertAt(Pad->size() - 1, I.clone());
          Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Idx));
          --Idx;
          Changed = true;
        }
      }
    }

    // Post-fixpoint reporting sweep: every scalar load still inside the
    // loop was blocked — name the blocker, deduplicated per (tag, reason)
    // with a static count.
    if (Re) {
      std::map<std::pair<TagId, int>, unsigned> Blocked;
      for (BlockId B : Lp.Blocks)
        for (const auto &IP : F.block(B)->insts()) {
          const Instruction &I = *IP;
          if (I.Op != Opcode::ScalarLoad)
            continue;
          RemarkReason R = ModdedTags.contains(I.Tag)
                               ? RemarkReason::TagModified
                               : RemarkReason::MultipleDefs;
          ++Blocked[{I.Tag, static_cast<int>(R)}];
        }
      for (const auto &[Key, N] : Blocked) {
        RemarkReason R = static_cast<RemarkReason>(Key.second);
        Re->emit("licm", RemarkKind::Missed, R, F.name(),
                 loopDisplayName(F, Lp.Header), Lp.Depth,
                 tagDisplayName(M, Key.first),
                 (R == RemarkReason::TagModified
                      ? std::string("the loop may modify the tag")
                      : std::string(
                            "result register has several definitions")) +
                     " (" + std::to_string(N) + " load(s))");
      }
    }
  }

  bool hoistable(const Instruction &I,
                 const std::vector<bool> &DefInLoop,
                 const TagSet &ModdedTags) {
    if (!I.hasResult())
      return false;
    // Only single-definition registers can move (the IL is not SSA; moving
    // one definition of a multiply-defined register would reorder it
    // against the others).
    if (NumDefs[I.Result] != 1)
      return false;
    for (Reg R : I.Ops)
      if (DefInLoop[R])
        return false;

    if (isSpeculable(I.Op))
      return true;
    // The paper's cLoad effect: an invariant scalar load may move to the
    // landing pad when nothing in the loop can modify the tag. Scalar
    // loads reference real objects, so the speculative load cannot fault.
    if (I.Op == Opcode::ScalarLoad)
      return !ModdedTags.contains(I.Tag);
    return false;
  }

  Function &F;
  const Module &M;
  LicmStats &Stats;
  RemarkEngine *Re;
  std::vector<uint32_t> NumDefs;
};

} // namespace

LicmStats rpcc::runLicm(Function &F, const Module &M, RemarkEngine *Re) {
  LicmStats Stats;
  FunctionLicm(F, M, Stats, Re).run();
  return Stats;
}

LicmStats rpcc::runLicm(Module &M, RemarkEngine *Re) {
  LicmStats Total;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || F->numBlocks() == 0)
      continue;
    LicmStats S = runLicm(*F, M, Re);
    Total.HoistedPure += S.HoistedPure;
    Total.HoistedLoads += S.HoistedLoads;
  }
  return Total;
}
