//===- opt/Sccp.cpp -------------------------------------------------------===//

#include "opt/Sccp.h"

#include "analysis/Cfg.h"
#include "opt/ConstFold.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>

using namespace rpcc;

namespace {

enum class Height : uint8_t { Top, Const, Bottom };

struct Lattice {
  Height H = Height::Top;
  uint64_t Bits = 0;
  bool IsFloat = false;
};

class SccpSolver {
public:
  SccpSolver(Function &F, SccpStats &Stats) : F(F), Stats(Stats) {}

  void run() {
    recomputeCfg(F);
    Vals.assign(F.numRegs(), Lattice());
    Executable.assign(F.numBlocks(), false);
    // Parameters are runtime inputs.
    for (Reg P : F.paramRegs())
      Vals[P].H = Height::Bottom;

    markExecutable(0);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B = 0; B != F.numBlocks(); ++B) {
        if (!Executable[B])
          continue;
        for (const auto &IP : F.block(B)->insts())
          Changed |= visit(*IP);
      }
    }
    rewrite();
  }

private:
  void markExecutable(BlockId B) {
    if (!Executable[B]) {
      Executable[B] = true;
      Dirty = true;
    }
  }

  /// Meet \p New into the cell of \p R; returns true on lattice movement.
  bool meet(Reg R, const Lattice &New) {
    Lattice &Cell = Vals[R];
    if (Cell.H == Height::Bottom || New.H == Height::Top)
      return false;
    if (Cell.H == Height::Top) {
      Cell = New;
      return true;
    }
    if (New.H == Height::Bottom ||
        (New.H == Height::Const &&
         (New.Bits != Cell.Bits || New.IsFloat != Cell.IsFloat))) {
      Cell.H = Height::Bottom;
      return true;
    }
    return false;
  }

  bool visit(const Instruction &I) {
    Dirty = false;
    switch (I.Op) {
    case Opcode::Br: {
      const Lattice &C = Vals[I.Ops[0]];
      if (C.H == Height::Const) {
        markExecutable(C.Bits ? I.Target0 : I.Target1);
      } else if (C.H == Height::Bottom) {
        markExecutable(I.Target0);
        markExecutable(I.Target1);
      }
      return Dirty;
    }
    case Opcode::Jmp:
      markExecutable(I.Target0);
      return Dirty;
    case Opcode::Ret:
    case Opcode::ScalarStore:
    case Opcode::Store:
      return false;
    case Opcode::Copy:
      return meet(I.Result, Vals[I.Ops[0]]);
    default:
      break;
    }
    if (!I.hasResult())
      return false;

    // Memory, calls, phis, addresses: runtime values.
    if (!isPureOp(I.Op) || I.Op == Opcode::LoadAddr)
      return meet(I.Result, Lattice{Height::Bottom, 0, false});

    if (I.Op == Opcode::LoadI)
      return meet(I.Result, constant(static_cast<uint64_t>(I.Imm), false));
    if (I.Op == Opcode::LoadF)
      return meet(I.Result, constant(std::bit_cast<uint64_t>(I.FImm), true));

    // Pure arithmetic: fold once every operand is a constant. Foldable
    // operations are unary or binary.
    uint64_t In[2] = {0, 0};
    bool AnyBottom = false;
    for (size_t K = 0; K != I.Ops.size(); ++K) {
      const Lattice &V = Vals[I.Ops[K]];
      if (V.H == Height::Top)
        return false; // wait for operands
      AnyBottom |= V.H == Height::Bottom;
      if (K < 2)
        In[K] = V.Bits;
    }
    std::optional<uint64_t> Out;
    if (!AnyBottom && I.Ops.size() <= 2)
      Out = foldConstant(I.Op, In[0], In[1]);
    if (!Out)
      return meet(I.Result, Lattice{Height::Bottom, 0, false});
    return meet(I.Result, constant(*Out, isFloatResult(I.Op)));
  }

  static Lattice constant(uint64_t Bits, bool IsFloat) {
    return Lattice{Height::Const, Bits, IsFloat};
  }

  void rewrite() {
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!Executable[B])
        continue;
      for (auto &IP : F.block(B)->insts()) {
        Instruction &I = *IP;
        // Fold conditional branches with known conditions.
        if (I.Op == Opcode::Br && Vals[I.Ops[0]].H == Height::Const) {
          Instruction J(Opcode::Jmp);
          J.Target0 = Vals[I.Ops[0]].Bits ? I.Target0 : I.Target1;
          I = std::move(J);
          ++Stats.BranchesResolved;
          continue;
        }
        // Materialize constant-valued pure computations.
        if (!I.hasResult() || !isPureOp(I.Op) || I.Op == Opcode::LoadI ||
            I.Op == Opcode::LoadF)
          continue;
        const Lattice &V = Vals[I.Result];
        if (V.H != Height::Const)
          continue;
        Instruction NewI(V.IsFloat ? Opcode::LoadF : Opcode::LoadI);
        NewI.Result = I.Result;
        if (V.IsFloat)
          std::memcpy(&NewI.FImm, &V.Bits, 8);
        else
          NewI.Imm = static_cast<int64_t>(V.Bits);
        I = std::move(NewI);
        ++Stats.Folded;
      }
    }
    // Unreachable blocks are left for Cleanup to delete.
  }

  Function &F;
  SccpStats &Stats;
  std::vector<Lattice> Vals;
  std::vector<bool> Executable;
  bool Dirty = false;
};

} // namespace

SccpStats rpcc::runSccp(Function &F) {
  SccpStats Stats;
  SccpSolver(F, Stats).run();
  return Stats;
}

SccpStats rpcc::runSccp(Module &M) {
  SccpStats Total;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || F->numBlocks() == 0)
      continue;
    SccpStats S = runSccp(*F);
    Total.Folded += S.Folded;
    Total.BranchesResolved += S.BranchesResolved;
  }
  return Total;
}
