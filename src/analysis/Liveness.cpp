//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include <cassert>

using namespace rpcc;

void Liveness::compute(const Function &F) {
  const size_t NB = F.numBlocks();
  W = (F.numRegs() + 63) / 64;
  In.assign(NB * W, 0);
  Out.assign(NB * W, 0);
  Use.assign(NB * W, 0);
  Def.assign(NB * W, 0);

  // Block-local USE (upward exposed) and DEF sets.
  for (const auto &B : F.blocks()) {
    uint64_t *U = &Use[B->id() * W];
    uint64_t *D = &Def[B->id() * W];
    for (const auto &IP : B->insts()) {
      const Instruction &I = *IP;
      assert(I.Op != Opcode::Phi && "liveness runs on phi-free IL");
      for (Reg R : I.Ops)
        if (!testBit(D, R))
          setBit(U, R);
      if (I.hasResult())
        setBit(D, I.Result);
    }
  }

  // Worklist iteration to the (unique) fixpoint of the backward problem.
  // Only a block whose successors' IN changed is revisited. IN is computed
  // word by word straight into its row; the OUT scratch row is reused
  // across visits.
  Queued.assign(NB, 1);
  Work.clear();
  for (size_t BI = 0; BI != NB; ++BI)
    Work.push_back(static_cast<BlockId>(BI)); // popped back-to-front
  NewOut.assign(W, 0);
  while (!Work.empty()) {
    BlockId BI = Work.back();
    Work.pop_back();
    Queued[BI] = 0;
    const BasicBlock *B = F.block(BI);
    for (size_t WI = 0; WI != W; ++WI)
      NewOut[WI] = 0;
    for (BlockId S : B->succs())
      for (size_t WI = 0; WI != W; ++WI)
        NewOut[WI] |= In[S * W + WI];
    bool InChanged = false;
    uint64_t *InRow = &In[BI * W];
    uint64_t *OutRow = &Out[BI * W];
    const uint64_t *U = &Use[BI * W];
    const uint64_t *D = &Def[BI * W];
    for (size_t WI = 0; WI != W; ++WI) {
      uint64_t NewIn = (NewOut[WI] & ~D[WI]) | U[WI];
      InChanged |= NewIn != InRow[WI];
      InRow[WI] = NewIn;
      OutRow[WI] = NewOut[WI];
    }
    if (InChanged)
      for (BlockId P : B->preds())
        if (!Queued[P]) {
          Queued[P] = 1;
          Work.push_back(P);
        }
  }
}
