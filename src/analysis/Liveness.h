//===- analysis/Liveness.h - Register liveness ------------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward bit-vector liveness over virtual registers, feeding the
/// interference graph of the Chaitin-Briggs allocator. Functions must be
/// phi-free (the pipeline never materializes phis into the IL).
///
/// Every per-block set is a row of one flat NB x W word matrix (W = words
/// per register set), so the allocator can rebuild liveness into the same
/// storage on every spill round without a heap allocation per block.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_ANALYSIS_LIVENESS_H
#define RPCC_ANALYSIS_LIVENESS_H

#include "ir/Function.h"
#include "support/DenseBitSet.h"

#include <cstdint>
#include <vector>

namespace rpcc {

class Liveness {
public:
  Liveness() = default;
  /// Requires up-to-date CFG lists.
  explicit Liveness(const Function &F) { compute(F); }

  /// (Re)computes liveness for \p F, reusing this object's storage.
  /// Requires up-to-date CFG lists.
  void compute(const Function &F);

  /// Block \p B's live-in / live-out set: ceil(numRegs / 64) words.
  const uint64_t *liveInWords(BlockId B) const { return &In[B * W]; }
  const uint64_t *liveOutWords(BlockId B) const { return &Out[B * W]; }

  bool isLiveIn(BlockId B, Reg R) const { return testBit(liveInWords(B), R); }
  bool isLiveOut(BlockId B, Reg R) const { return testBit(liveOutWords(B), R); }

private:
  size_t W = 0;
  /// NB x W each: live-in, live-out, upward-exposed uses, definitions.
  std::vector<uint64_t> In, Out, Use, Def;
  /// Fixpoint scratch, kept for reuse.
  std::vector<uint64_t> NewOut;
  std::vector<char> Queued;
  std::vector<BlockId> Work;
};

} // namespace rpcc

#endif // RPCC_ANALYSIS_LIVENESS_H
