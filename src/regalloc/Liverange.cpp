//===- regalloc/Liverange.cpp ---------------------------------------------===//

#include "regalloc/Liverange.h"

#include "analysis/LoopInfo.h"
#include "support/DenseBitSet.h"

#include <cmath>

using namespace rpcc;

namespace {
/// 10^loop-depth per block — the classic spill-cost weight.
std::vector<double> loopWeights(const Function &F) {
  LoopInfo LI(F);
  std::vector<double> W(F.numBlocks(), 1.0);
  for (BlockId B = 0; B != F.numBlocks(); ++B) {
    int LoopIdx = LI.innermostLoop(B);
    unsigned Depth = LoopIdx < 0 ? 0 : LI.loop(LoopIdx).Depth;
    W[B] = std::pow(10.0, static_cast<double>(Depth));
  }
  return W;
}
} // namespace

InterferenceGraph::InterferenceGraph(const Function &F) {
  build(F, loopWeights(F));
}

void InterferenceGraph::build(const Function &F,
                              const std::vector<double> &BlockWeight) {
  N = F.numRegs();
  W = (N + 63) / 64;
  // assign() keeps capacity, so a rebuild on the next spill round or the
  // next function allocates only when the graph outgrows every earlier one.
  Matrix.assign(N * W, 0);
  Live.assign(W, 0);
  Int.assign(W, 0);
  Flt.assign(W, 0);
  LiveNow.resize(W);
  Degrees.assign(N, 0);
  ClassDeg.assign(N, 0);
  Copies.clear();
  RawCosts.assign(N, 0.0);
  Costs.resize(N);
  for (Reg R = 0; R != N; ++R)
    setBit(F.regType(R) == RegType::Flt ? Flt.data() : Int.data(), R);
  LV.compute(F);

  for (Reg P : F.paramRegs())
    setBit(Live.data(), P);

  // Each definition interferes with everything live across it. The live
  // set is unioned into the definition's matrix row word-parallel; rows
  // are symmetrized below, once, instead of mirroring every bit as it is
  // discovered.
  for (const auto &B : F.blocks()) {
    // Spill-cost weight grows with loop depth.
    double Weight = BlockWeight[B->id()];

    const uint64_t *Out = LV.liveOutWords(B->id());
    for (size_t WI = 0; WI != W; ++WI)
      LiveNow[WI] = Out[WI];
    // Walk backward building interferences.
    const auto &Insts = B->insts();
    for (size_t Idx = Insts.size(); Idx-- > 0;) {
      const Instruction &I = *Insts[Idx];
      if (I.hasResult()) {
        setBit(Live.data(), I.Result);
        RawCosts[I.Result] += Weight;
        if (I.Op == Opcode::Copy) {
          Copies.push_back(CopyEdge{I.Result, I.Ops[0], Weight});
          // Chaitin's refinement: the copy source does not interfere with
          // the destination (they may share a register).
          resetBit(LiveNow.data(), I.Ops[0]);
        }
        uint64_t *Row = rowMut(I.Result);
        for (size_t WI = 0; WI != W; ++WI)
          Row[WI] |= LiveNow[WI];
        resetBit(LiveNow.data(), I.Result);
      }
      for (Reg U : I.Ops) {
        setBit(LiveNow.data(), U);
        setBit(Live.data(), U);
        RawCosts[U] += Weight;
      }
    }
    // Parameters are defined at entry: they interfere with everything live
    // into the entry block.
    if (B->id() == 0) {
      const uint64_t *EntryIn = LV.liveInWords(0);
      for (Reg P : F.paramRegs()) {
        uint64_t *Row = rowMut(P);
        for (size_t WI = 0; WI != W; ++WI)
          Row[WI] |= EntryIn[WI];
      }
    }
  }

  // Drop self-edges, then close the matrix under symmetry. Setting the
  // mirror bit of an already-mirrored edge is a no-op, so visiting rows in
  // order — including transpose bits added by earlier rows — is safe. (A
  // 64 x 64 block-transpose closure measured no faster on this corpus's
  // graphs, N <= 220.)
  for (Reg R = 0; R != N; ++R)
    resetBit(rowMut(R), R);
  for (Reg R = 0; R != N; ++R) {
    const uint64_t *Row = rowMut(R);
    for (size_t WI = 0; WI != W; ++WI)
      for (uint64_t Bits = Row[WI]; Bits; Bits &= Bits - 1)
        setBit(rowMut(static_cast<Reg>(WI * 64 + __builtin_ctzll(Bits))), R);
  }

  // Degrees and per-class degrees by popcount over the final rows. Every
  // register in a row is defined or used somewhere, so no live mask is
  // needed here.
  for (Reg R = 0; R != N; ++R) {
    const uint64_t *Row = row(R), *Cls = classWords(R);
    unsigned Deg = 0, CDeg = 0;
    for (size_t WI = 0; WI != W; ++WI) {
      Deg += popcount64(Row[WI]);
      CDeg += popcount64(Row[WI] & Cls[WI]);
    }
    Degrees[R] = Deg;
    ClassDeg[R] = CDeg;
  }

  // Normalize cost to cost/degree (classic Chaitin heuristic); guard the
  // degree-zero case. The raw counts are kept so merge() can re-normalize
  // as degrees shift.
  for (Reg R = 0; R != N; ++R)
    Costs[R] = normalizedCost(R);
}

void InterferenceGraph::merge(Reg A, Reg B, double CopyWeight) {
  uint64_t *RowA = rowMut(A), *RowB = rowMut(B);
  const bool BIsFlt = testBit(Flt.data(), B);
  // B's neighbors become A's. A shared neighbor loses B and keeps A —
  // the merged node counts once — while a B-only neighbor swaps B for A
  // at unchanged degree. Class(A) == class(B) by precondition, so the
  // class-degree bookkeeping mirrors the plain degrees. Each neighbor's
  // update touches only that neighbor's own row and counters, so the
  // visiting order cannot change the result.
  for (size_t WI = 0; WI != W; ++WI)
    for (uint64_t Bits = RowB[WI] & Live[WI]; Bits; Bits &= Bits - 1) {
      Reg Nb = static_cast<Reg>(WI * 64 + __builtin_ctzll(Bits));
      uint64_t *RowNb = rowMut(Nb);
      resetBit(RowNb, B);
      if (testBit(RowNb, A)) {
        --Degrees[Nb];
        if (testBit(Flt.data(), Nb) == BIsFlt)
          --ClassDeg[Nb];
        Costs[Nb] = normalizedCost(Nb);
      } else {
        setBit(RowNb, A);
      }
    }
  // A's row takes B's live neighbors; B's row empties and B leaves the live
  // set, so no live row names a dead node — the invariant that lets every
  // traversal read rows without filtering stale entries.
  for (size_t WI = 0; WI != W; ++WI) {
    RowA[WI] |= RowB[WI] & Live[WI];
    RowB[WI] = 0;
  }
  resetBit(RowA, B);
  resetBit(Live.data(), B);
  // The combined live range spills as one unit: pool the raw weighted
  // counts — minus the deleted copy's def and use — then re-normalize
  // against the merged degree below.
  RawCosts[A] += RawCosts[B] - 2 * CopyWeight;
  const uint64_t *Cls = classWords(A);
  unsigned Deg = 0, CDeg = 0;
  for (size_t WI = 0; WI != W; ++WI) {
    Deg += popcount64(RowA[WI] & Live[WI]);
    CDeg += popcount64(RowA[WI] & Live[WI] & Cls[WI]);
  }
  Degrees[A] = Deg;
  ClassDeg[A] = CDeg;
  Costs[A] = normalizedCost(A);
}
