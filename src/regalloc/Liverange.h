//===- regalloc/Liverange.h - Interference graph -----------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interference graph and spill costs for the Chaitin-Briggs allocator
/// (Briggs, Cooper & Torczon, TOPLAS 1994 — the paper's reference [1]).
///
/// The graph is one flat N x W bit matrix (W = 64-bit words per row) plus
/// three N-bit sets: the live nodes and the integer and float classes.
/// There are no adjacency lists: every neighborhood query is a walk over
/// `row & live [& class]`, a few words wide, which visits neighbors in
/// ascending register order. All storage is reused across build() calls.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_REGALLOC_LIVERANGE_H
#define RPCC_REGALLOC_LIVERANGE_H

#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "support/DenseBitSet.h"

#include <cstdint>
#include <vector>

namespace rpcc {

/// Interference graph over virtual registers, built from backward liveness.
/// Copy sources do not interfere with copy destinations (enables
/// coalescing).
class InterferenceGraph {
public:
  InterferenceGraph() = default;

  /// Builds the graph of \p F, computing loop-depth spill weights itself.
  /// Requires up-to-date CFG lists.
  explicit InterferenceGraph(const Function &F);

  /// (Re)builds the graph of \p F into this object's storage, with
  /// precomputed per-block spill-cost weights (10^loop-depth). The
  /// allocator hoists these out of its spill rounds: rounds change
  /// instructions, never the CFG. Requires up-to-date CFG lists.
  void build(const Function &F, const std::vector<double> &BlockWeight);

  size_t numNodes() const { return N; }
  /// 64-bit words per row and per node set.
  size_t words() const { return W; }
  bool interfere(Reg A, Reg B) const { return testBit(row(A), B); }
  unsigned degree(Reg A) const { return Degrees[A]; }

  /// True if the register is defined or used anywhere and has not been
  /// folded into another node by merge().
  bool isLive(Reg A) const { return testBit(Live.data(), A); }

  /// Per-node degree within its own register class (colors are per-class,
  /// so only same-class neighbors constrain coloring). Maintained across
  /// merge() calls.
  unsigned classDegree(Reg A) const { return ClassDeg[A]; }
  const std::vector<unsigned> &classDegrees() const { return ClassDeg; }

  /// The W words of \p A's row: bit B is set iff A and B interfere. Rows of
  /// live nodes only ever hold live nodes (merge() clears the dead one from
  /// every row it was in).
  const uint64_t *row(Reg A) const { return &Matrix[A * W]; }
  /// The W words of the live-node set.
  const uint64_t *liveWords() const { return Live.data(); }
  /// The W words of \p A's register class.
  const uint64_t *classWords(Reg A) const {
    return testBit(Flt.data(), A) ? Flt.data() : Int.data();
  }

  /// Calls \p Fn(Nb) for every live neighbor Nb of \p A — only those of
  /// A's register class when \p SameClass — in ascending register order.
  template <typename FnT>
  void forEachNeighbor(Reg A, bool SameClass, FnT Fn) const {
    const uint64_t *R = row(A), *Cls = classWords(A);
    for (size_t WI = 0; WI != W; ++WI) {
      uint64_t Bits = R[WI] & Live[WI] & (SameClass ? Cls[WI] : ~uint64_t(0));
      for (; Bits; Bits &= Bits - 1)
        Fn(static_cast<Reg>(WI * 64 + __builtin_ctzll(Bits)));
    }
  }

  /// Coalesce update: fold node \p B into node \p A in place. The merged
  /// node's neighborhood becomes the union of the two old neighborhoods.
  /// That holds every interference of the rewritten function (B renamed
  /// to A, the copy deleted): interference only arises at definitions,
  /// each definition of the merged node was one of A's or B's, and each
  /// value live across a definition was live there as A or B — so
  /// coloring the updated graph is sound without a rebuild. It can hold
  /// more: a rebuild applies the copy refinement to every copy that reads
  /// the merged node. In `x <- b; a <- b; ... x ... a`, x interferes with
  /// a at a's definition; once b is a, the rebuilt `x <- a` keeps them
  /// apart, while the union keeps the edge. Spill costs are re-normalized
  /// against the new degrees. \p B becomes dead (isLive() false) and
  /// leaves every row. Requires the two nodes be distinct, live,
  /// non-interfering, and of the same register class. \p CopyWeight is
  /// the deleted copy's weight (one def + one use leave the program with
  /// it).
  void merge(Reg A, Reg B, double CopyWeight);

  /// Copy instructions found during the build: (dst, src) pairs plus the
  /// copy's own spill-cost weight (10^loop-depth), so coalescing can
  /// deduct the instruction it deletes from the merged node's cost.
  struct CopyEdge {
    Reg Dst, Src;
    double Weight;
  };
  const std::vector<CopyEdge> &copies() const { return Copies; }

  /// Spill priority: dynamic-count estimate (uses+defs weighted by
  /// 10^loop-depth) divided by degree. Lower is cheaper to spill.
  const std::vector<double> &spillCosts() const { return Costs; }

private:
  uint64_t *rowMut(Reg A) { return &Matrix[A * W]; }
  double normalizedCost(Reg R) const {
    return Degrees[R] ? RawCosts[R] / Degrees[R] : RawCosts[R];
  }

  size_t N = 0, W = 0;
  std::vector<uint64_t> Matrix; ///< N x W
  std::vector<uint64_t> Live, Int, Flt, LiveNow; ///< W each
  std::vector<unsigned> Degrees;
  std::vector<unsigned> ClassDeg;
  std::vector<CopyEdge> Copies;
  std::vector<double> RawCosts;
  std::vector<double> Costs;
  Liveness LV;
};

} // namespace rpcc

#endif // RPCC_REGALLOC_LIVERANGE_H
