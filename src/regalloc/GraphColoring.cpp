//===- regalloc/GraphColoring.cpp -----------------------------------------===//

#include "regalloc/GraphColoring.h"

#include "analysis/Cfg.h"
#include "analysis/LoopInfo.h"
#include "regalloc/Liverange.h"
#include "support/DenseBitSet.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace rpcc;

namespace {

/// The register of the lowest set bit of word \p WordIdx of a row.
Reg bitReg(size_t WordIdx, uint64_t Bits) {
  return static_cast<Reg>(WordIdx * 64 + __builtin_ctzll(Bits));
}

/// Every buffer the allocator needs, owned by one allocateRegisters() call
/// and reused across all of its spill rounds and functions, so the steady
/// state allocates nothing: each vector is re-assign()ed to the current
/// size, which keeps its capacity.
struct Workspace {
  InterferenceGraph IG;
  std::vector<double> BlockWeight;
  std::vector<bool> NoSpill;
  std::vector<Reg> Remap;
  // color(): per-node degree, the simplify stack and the spill list, the
  // alive / eligible / colored node sets (W words each), one K-bit
  // used-color set, and the optimistic spill order.
  std::vector<unsigned> Degree;
  std::vector<Reg> Stack, SpillList;
  std::vector<uint64_t> Alive, Eligible, Colored, UsedColors;
  std::vector<std::pair<double, Reg>> SpillOrder;
  std::vector<int> Colors;
  // Spill rounds: each register's definition count, last definition, and
  // the blocks it occurs in (one bit row of ceil(NB/64) words each).
  std::vector<unsigned> NumDefs;
  std::vector<const Instruction *> DefInst;
  std::vector<BasicBlock *> DefBlock;
  std::vector<uint64_t> RegBlocks;
};

class Allocator {
public:
  Allocator(Module &M, Function &F, const RegAllocOptions &Opts,
            RegAllocStats &Stats, Workspace &WS)
      : M(M), F(F), Opts(Opts), K(effectiveK(F, Opts.NumRegisters)),
        Stats(Stats), WS(WS), IG(WS.IG), Colors(WS.Colors),
        NoSpill(WS.NoSpill) {
    NoSpill.clear();
  }

  /// Arguments are passed in registers, so an instruction with N operands
  /// needs N simultaneous registers no matter how much we spill; likewise
  /// a function's incoming parameters are all live at once on entry. Clamp
  /// K up to that structural minimum (plus one for a defined result).
  static unsigned effectiveK(const Function &F, unsigned K) {
    unsigned MinK = 4;
    for (const auto &B : F.blocks())
      for (const auto &IP : B->insts())
        MinK = std::max(MinK, static_cast<unsigned>(IP->Ops.size()) + 1);
    unsigned IntParams = 0, FltParams = 0;
    for (Reg P : F.paramRegs()) {
      if (F.regType(P) == RegType::Flt)
        ++FltParams;
      else
        ++IntParams;
    }
    MinK = std::max(MinK, IntParams + 1);
    MinK = std::max(MinK, FltParams + 1);
    return std::max(K, MinK);
  }

  void run() {
    recomputeCfg(F);
    // Spill rounds insert instructions but never touch the CFG, so the
    // loop-depth spill weights are computed once for every graph build.
    {
      LoopInfo LI(F);
      WS.BlockWeight.assign(F.numBlocks(), 1.0);
      for (BlockId B = 0; B != F.numBlocks(); ++B) {
        int LoopIdx = LI.innermostLoop(B);
        unsigned Depth = LoopIdx < 0 ? 0 : LI.loop(LoopIdx).Depth;
        WS.BlockWeight[B] = std::pow(10.0, static_cast<double>(Depth));
      }
    }
    for (unsigned Round = 0; Round < 100; ++Round) {
      ++Stats.Rounds;
      // coalesce() folds merges into the round's single graph with the
      // union update, which holds every interference of the rewritten
      // function (see InterferenceGraph::merge) — so the graph it leaves
      // in IG is colored directly, and the only rebuilds left are the one
      // per spill round.
      coalesce();
      std::vector<Reg> &SpillList = WS.SpillList;
      SpillList.clear();
      if (color(SpillList)) {
        rewriteToColors();
        return;
      }
      // Every register on the list came off the simplify stack, which
      // holds each node once, so the list has no duplicates; and spilling
      // one register never adds, removes or renames another's definition
      // or use (only its own and fresh temporaries'). So one occurrence
      // table, taken before the first spill, serves the whole round.
      buildOccurrenceTable();
      for (Reg V : SpillList)
        spill(V);
    }
    assert(false && "register allocation failed to converge");
  }

private:
  // -- Coalescing ---------------------------------------------------------
  // Both tests below read masked rows: `row & live & class` holds exactly
  // the same-class neighbors the adjacency lists of earlier versions held
  // after skipping dead entries. They only count or test membership, so
  // the word order of the walk is immaterial. A and B never interfere
  // here (coalesce() checks first), so neither is in the other's row.

  /// Briggs conservative test: merging is safe if the combined node has
  /// fewer than K same-class neighbors of significant degree.
  bool briggsSafe(Reg A, Reg B) const {
    unsigned Significant = 0;
    const uint64_t *RowA = IG.row(A), *RowB = IG.row(B);
    const uint64_t *Live = IG.liveWords(), *Cls = IG.classWords(A);
    for (size_t WI = 0, W = IG.words(); WI != W; ++WI) {
      const uint64_t Mask = Live[WI] & Cls[WI];
      for (uint64_t Bits = RowA[WI] & Mask; Bits; Bits &= Bits - 1) {
        Reg Nb = bitReg(WI, Bits);
        unsigned Deg = IG.classDegree(Nb);
        if (testBit(RowB, Nb))
          --Deg; // merged node counts once
        if (Deg >= K)
          ++Significant;
      }
      // Neighbors of B not shared with A.
      for (uint64_t Bits = RowB[WI] & ~RowA[WI] & Mask; Bits;
           Bits &= Bits - 1)
        if (IG.classDegree(bitReg(WI, Bits)) >= K)
          ++Significant;
    }
    return Significant < K;
  }

  /// George's coalescing test: merging B into A is safe if every
  /// same-class neighbor of B either already interferes with A or is of
  /// insignificant degree. Catches the long-live-range copies (promotion's
  /// accumulators) that the Briggs test rejects under pressure.
  bool georgeSafe(Reg A, Reg B) const {
    const uint64_t *RowA = IG.row(A), *RowB = IG.row(B);
    const uint64_t *Live = IG.liveWords(), *Cls = IG.classWords(B);
    for (size_t WI = 0, W = IG.words(); WI != W; ++WI)
      for (uint64_t Bits = RowB[WI] & ~RowA[WI] & Live[WI] & Cls[WI]; Bits;
           Bits &= Bits - 1)
        if (IG.classDegree(bitReg(WI, Bits)) >= K)
          return false;
    return true;
  }

  /// Representative of \p R under the pending merges, with path
  /// compression.
  static Reg rep(std::vector<Reg> &Remap, Reg R) {
    while (Remap[R] != R) {
      Remap[R] = Remap[Remap[R]]; // halve the chain
      R = Remap[R];
    }
    return R;
  }

  /// Coalesce to a fixpoint on one interference graph. Each merge folds
  /// the copy's endpoints with InterferenceGraph::merge — the conservative
  /// union update — which keeps degrees current, so no rebuild is needed
  /// between sweeps; sweeps repeat only because a merge elsewhere can drop
  /// a neighborhood below the Briggs threshold and unlock another copy.
  void coalesce() {
    IG.build(F, WS.BlockWeight);
    std::vector<Reg> &Remap = WS.Remap;
    Remap.resize(F.numRegs());
    for (Reg R = 0; R != F.numRegs(); ++R)
      Remap[R] = R;
    bool NeedRewrite = false;

    for (bool MergedAny = true; MergedAny;) {
      MergedAny = false;
      for (const auto &C : IG.copies()) {
        Reg A = rep(Remap, C.Dst), B = rep(Remap, C.Src);
        if (A == B || IG.interfere(A, B))
          continue;
        if (F.regType(A) != F.regType(B))
          continue;
        bool Safe = briggsSafe(A, B) ||
                    (Opts.GeorgeCoalescing &&
                     (georgeSafe(A, B) || georgeSafe(B, A)));
        if (!Safe)
          continue;
        IG.merge(A, B, C.Weight);
        Remap[B] = A;
        NeedRewrite = true;
        MergedAny = true;
        ++Stats.CoalescedCopies;
      }
    }
    if (NeedRewrite) {
      for (Reg R = 0; R != F.numRegs(); ++R)
        Remap[R] = rep(Remap, R);
      applyRemap(Remap);
    }
  }

  void applyRemap(const std::vector<Reg> &Remap) {
    for (auto &B : F.blocks()) {
      auto &Insts = B->insts();
      for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        if (I.hasResult())
          I.Result = Remap[I.Result];
        for (Reg &R : I.Ops)
          R = Remap[R];
        if (I.Op == Opcode::Copy && I.Result == I.Ops[0]) {
          B->eraseAt(Idx);
          --Idx;
        }
      }
    }
    for (Reg &P : F.paramRegs())
      P = Remap[P];
  }

  // -- Coloring -------------------------------------------------------------
  /// Colors both register classes; integer nodes draw from {0..K-1},
  /// floats from {K..2K-1}. Only same-class neighbors constrain a node.
  bool color(std::vector<Reg> &SpillList) {
    const size_t N = IG.numNodes(), W = IG.words();
    const uint64_t *Live = IG.liveWords();
    std::vector<unsigned> &Degree = WS.Degree;
    std::vector<uint64_t> &Alive = WS.Alive, &Eligible = WS.Eligible;
    std::vector<Reg> &Stack = WS.Stack;
    Degree = IG.classDegrees();
    Alive.assign(Live, Live + W);
    // Low-degree nodes awaiting simplification. Each pick is the lowest
    // set bit — the lowest-numbered eligible node, the node a min-heap or
    // a linear rescan would yield. Degrees only decrease, so a node, once
    // eligible, stays eligible until it is picked; setting its bit again
    // is a no-op.
    Eligible.assign(W, 0);
    Stack.clear();
    size_t Remaining = 0;
    for (size_t WI = 0; WI != W; ++WI) {
      Remaining += popcount64(Alive[WI]);
      for (uint64_t Bits = Alive[WI]; Bits; Bits &= Bits - 1) {
        Reg R = bitReg(WI, Bits);
        if (Degree[R] < K)
          setBit(Eligible.data(), R);
      }
    }

    // Optimistic spill candidates in pick order, sorted on first need.
    // Costs do not change during coloring, so the first alive entry is the
    // cheapest alive node, ties going to the lowest register — exactly
    // what a scan keeping the first strict minimum picks.
    std::vector<std::pair<double, Reg>> &SpillOrder = WS.SpillOrder;
    SpillOrder.clear();
    size_t SpillCursor = 0;

    // Simplify with optimistic spill candidates.
    while (Remaining) {
      Reg Pick = NoReg;
      for (size_t WI = 0; WI != W; ++WI)
        if (Eligible[WI]) {
          Pick = bitReg(WI, Eligible[WI]);
          break;
        }
      if (Pick == NoReg) {
        if (SpillOrder.empty()) {
          for (size_t WI = 0; WI != W; ++WI)
            for (uint64_t Bits = Alive[WI]; Bits; Bits &= Bits - 1) {
              Reg R = bitReg(WI, Bits);
              double Cost = IG.spillCosts()[R];
              if (NoSpill.size() > R && NoSpill[R])
                Cost += 1e12; // strongly avoid re-spilling reload temps
              SpillOrder.emplace_back(Cost, R);
            }
          std::sort(SpillOrder.begin(), SpillOrder.end());
        }
        while (!testBit(Alive.data(), SpillOrder[SpillCursor].second))
          ++SpillCursor;
        Pick = SpillOrder[SpillCursor++].second;
      }
      resetBit(Alive.data(), Pick);
      resetBit(Eligible.data(), Pick);
      --Remaining;
      Stack.push_back(Pick);
      const uint64_t *Row = IG.row(Pick), *Cls = IG.classWords(Pick);
      for (size_t WI = 0; WI != W; ++WI)
        for (uint64_t Bits = Row[WI] & Alive[WI] & Cls[WI]; Bits;
             Bits &= Bits - 1) {
          Reg Nb = bitReg(WI, Bits);
          if (Degree[Nb] > 0 && --Degree[Nb] < K)
            setBit(Eligible.data(), Nb);
        }
    }

    // Select. The used colors of a node are collected from its colored
    // same-class neighbors into one K-bit set; the lowest clear bit is its
    // color.
    Colors.assign(N, -1);
    std::vector<uint64_t> &Colored = WS.Colored, &Used = WS.UsedColors;
    Colored.assign(W, 0);
    const size_t KW = (K + 63) / 64;
    Used.resize(KW);
    bool Success = true;
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
      Reg R = *It;
      std::fill(Used.begin(), Used.end(), 0);
      const uint64_t *Row = IG.row(R), *Cls = IG.classWords(R);
      for (size_t WI = 0; WI != W; ++WI)
        for (uint64_t Bits = Row[WI] & Colored[WI] & Cls[WI]; Bits;
             Bits &= Bits - 1)
          setBit(Used.data(), classColor(bitReg(WI, Bits)));
      int C = -1;
      for (size_t CW = 0; CW != KW; ++CW)
        if (~Used[CW]) {
          unsigned I = bitReg(CW, ~Used[CW]);
          if (I < K)
            C = static_cast<int>(I);
          break;
        }
      if (C < 0) {
        SpillList.push_back(R);
        Success = false;
      } else {
        bool IsFlt = F.regType(R) == RegType::Flt;
        Colors[R] = C + (IsFlt ? static_cast<int>(K) : 0);
        setBit(Colored.data(), R);
        Stats.ColorsUsed =
            std::max(Stats.ColorsUsed, static_cast<unsigned>(C) + 1);
      }
    }
    return Success;
  }

  /// The within-class color of an already-colored node.
  unsigned classColor(Reg R) const {
    int C = Colors[R];
    return static_cast<unsigned>(C) >= K ? static_cast<unsigned>(C) - K
                                         : static_cast<unsigned>(C);
  }

  // -- Spilling --------------------------------------------------------------
  /// Briggs-style rematerialization: a register whose only definition is a
  /// constant or tag address is recomputed at each use instead of being
  /// stored and reloaded — hoisted loop invariants spill for free.
  bool tryRematerialize(Reg V) {
    for (Reg P : F.paramRegs())
      if (P == V)
        return false;
    if (WS.NumDefs[V] != 1)
      return false;
    const Instruction *Def = WS.DefInst[V];
    if (Def->Op != Opcode::LoadI && Def->Op != Opcode::LoadF &&
        Def->Op != Opcode::LoadAddr)
      return false;

    Instruction DefCopy = Def->clone();
    forEachBlockOf(V, [&](BasicBlock *B) {
      auto &Insts = B->insts();
      for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        bool UsesV = false;
        for (Reg R : I.Ops)
          UsesV |= R == V;
        if (!UsesV)
          continue;
        Reg Tmp = F.newReg(F.regType(V));
        if (NoSpill.size() <= Tmp)
          NoSpill.resize(Tmp + 1, false);
        NoSpill[Tmp] = true;
        Instruction Clone = DefCopy.clone();
        Clone.Result = Tmp;
        B->insertAt(Idx, std::move(Clone));
        ++Idx;
        Instruction &I2 = *Insts[Idx];
        for (Reg &R : I2.Ops)
          if (R == V)
            R = Tmp;
      }
    });
    // Delete the original definition; V is now dead.
    auto &DefInsts = WS.DefBlock[V]->insts();
    for (size_t Idx = 0; Idx < DefInsts.size(); ++Idx)
      if (DefInsts[Idx].get() == Def) {
        WS.DefBlock[V]->eraseAt(Idx);
        break;
      }
    return true;
  }

  /// Records, in one scan, each register's definition count, its (last)
  /// defining instruction and the blocks it appears in. Instructions live
  /// behind stable pointers, so the entries survive the insertions of
  /// earlier spills in the round.
  void buildOccurrenceTable() {
    const size_t N = F.numRegs();
    const size_t BW = (F.numBlocks() + 63) / 64;
    WS.NumDefs.assign(N, 0);
    WS.DefInst.assign(N, nullptr);
    WS.DefBlock.assign(N, nullptr);
    WS.RegBlocks.assign(N * BW, 0);
    for (auto &B : F.blocks()) {
      const BlockId BI = B->id();
      const uint64_t Bit = uint64_t(1) << (BI % 64);
      for (const auto &IP : B->insts()) {
        if (IP->hasResult()) {
          ++WS.NumDefs[IP->Result];
          WS.DefInst[IP->Result] = IP.get();
          WS.DefBlock[IP->Result] = B.get();
          WS.RegBlocks[IP->Result * BW + BI / 64] |= Bit;
        }
        for (Reg R : IP->Ops)
          WS.RegBlocks[R * BW + BI / 64] |= Bit;
      }
    }
  }

  /// Calls \p Fn on every block that defined or used \p V when the round's
  /// occurrence table was taken, in block order. The spill rewrites visit
  /// only these: every other block holds no instruction they would touch,
  /// so the instructions and fresh registers they create, and the order in
  /// which they create them, are those of a walk over every block.
  template <typename FnT> void forEachBlockOf(Reg V, FnT Fn) {
    const size_t BW = (F.numBlocks() + 63) / 64;
    const uint64_t *Row = &WS.RegBlocks[V * BW];
    for (size_t WI = 0; WI != BW; ++WI)
      for (uint64_t Bits = Row[WI]; Bits; Bits &= Bits - 1)
        Fn(F.block(static_cast<BlockId>(WI * 64 + __builtin_ctzll(Bits))));
  }

  void spill(Reg V) {
    if (Opts.Rematerialization && tryRematerialize(V)) {
      ++Stats.RematerializedRegs;
      return;
    }
    ++Stats.SpilledRegs;
    MemType MT = F.regType(V) == RegType::Flt ? MemType::F64 : MemType::I64;
    TagId SpillTag = M.tags().createSpill(
        "spill." + F.name() + "." + std::to_string(Stats.SpilledRegs), F.id(),
        MT);

    auto MarkNoSpill = [&](Reg R) {
      if (NoSpill.size() <= R)
        NoSpill.resize(R + 1, false);
      NoSpill[R] = true;
    };

    // Parameters arrive in V: store them on entry before any use.
    bool IsParam = false;
    for (Reg P : F.paramRegs())
      IsParam |= P == V;
    if (IsParam) {
      Instruction St(Opcode::ScalarStore);
      St.Tag = SpillTag;
      St.MemTy = MT;
      St.Ops = {V};
      F.entry()->insertAt(0, std::move(St));
      ++Stats.SpillStores;
    }

    forEachBlockOf(V, [&](BasicBlock *B) {
      auto &Insts = B->insts();
      for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        // Skip the entry store we just inserted.
        if (I.Op == Opcode::ScalarStore && I.Tag == SpillTag)
          continue;
        bool UsesV = false;
        for (Reg R : I.Ops)
          UsesV |= R == V;
        if (UsesV) {
          Reg Tmp = F.newReg(F.regType(V));
          MarkNoSpill(Tmp);
          Instruction Ld(Opcode::ScalarLoad);
          Ld.Tag = SpillTag;
          Ld.MemTy = MT;
          Ld.Result = Tmp;
          B->insertAt(Idx, std::move(Ld));
          ++Idx; // I moved one slot down
          Instruction &I2 = *Insts[Idx];
          for (Reg &R : I2.Ops)
            if (R == V)
              R = Tmp;
          ++Stats.SpillLoads;
        }
        Instruction &ICur = *Insts[Idx];
        if (ICur.hasResult() && ICur.Result == V) {
          Reg Tmp = F.newReg(F.regType(V));
          MarkNoSpill(Tmp);
          ICur.Result = Tmp;
          Instruction St(Opcode::ScalarStore);
          St.Tag = SpillTag;
          St.MemTy = MT;
          St.Ops = {Tmp};
          B->insertAt(Idx + 1, std::move(St));
          ++Idx;
          ++Stats.SpillStores;
        }
      }
    });
  }

  // -- Final rewrite ------------------------------------------------------------
  void rewriteToColors() {
    for (auto &B : F.blocks()) {
      auto &Insts = B->insts();
      for (size_t Idx = 0; Idx < Insts.size(); ++Idx) {
        Instruction &I = *Insts[Idx];
        if (I.hasResult()) {
          assert(Colors[I.Result] >= 0 && "uncolored defined register");
          I.Result = static_cast<Reg>(Colors[I.Result]);
        }
        for (Reg &R : I.Ops) {
          assert(Colors[R] >= 0 && "uncolored used register");
          R = static_cast<Reg>(Colors[R]);
        }
        // Copies whose operands landed in the same register disappear.
        if (I.Op == Opcode::Copy && I.Result == I.Ops[0]) {
          B->eraseAt(Idx);
          --Idx;
        }
      }
    }
    for (Reg &P : F.paramRegs())
      P = static_cast<Reg>(Colors[P]);
    F.resetRegisters(2 * K);
  }

  Module &M;
  Function &F;
  const RegAllocOptions &Opts;
  const unsigned K;
  RegAllocStats &Stats;
  Workspace &WS;
  InterferenceGraph &IG;
  std::vector<int> &Colors;
  std::vector<bool> &NoSpill;
};

} // namespace

RegAllocStats rpcc::allocateRegisters(Module &M, Function &F,
                                      const RegAllocOptions &Opts) {
  RegAllocStats Stats;
  Workspace WS;
  Allocator(M, F, Opts, Stats, WS).run();
  return Stats;
}

RegAllocStats rpcc::allocateRegisters(Module &M, const RegAllocOptions &Opts) {
  RegAllocStats Total;
  Workspace WS; // shared by every function of the module
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || F->numBlocks() == 0)
      continue;
    RegAllocStats S;
    Allocator(M, *F, Opts, S, WS).run();
    Total.CoalescedCopies += S.CoalescedCopies;
    Total.SpilledRegs += S.SpilledRegs;
    Total.RematerializedRegs += S.RematerializedRegs;
    Total.SpillLoads += S.SpillLoads;
    Total.SpillStores += S.SpillStores;
    Total.Rounds += S.Rounds;
    Total.ColorsUsed = std::max(Total.ColorsUsed, S.ColorsUsed);
  }
  return Total;
}
