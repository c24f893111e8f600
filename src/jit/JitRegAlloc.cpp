//===- jit/JitRegAlloc.cpp - Block-local host register allocation ---------===//
//
// Counts IL register uses per basic block of the decoded stream and
// assigns the most-used ones to the emitter's free host-register pool. See
// JitRegAlloc.h for the residency contract.
//
//===----------------------------------------------------------------------===//

#include "jit/JitRegAlloc.h"

#include <algorithm>

using namespace rpcc;

namespace {

/// Operand roles of one decoded instruction. Only true register
/// operands count: Call's A is an argument count, branch targets are
/// instruction indices, and call arguments are read from the memory
/// register file by the shim (mapping them buys nothing at a site that
/// forces full writeback anyway).
struct OperandRoles {
  Reg Read1 = NoReg, Read2 = NoReg, Write = NoReg;
};

OperandRoles rolesOf(const DecodedInst &DI) {
  OperandRoles R;
  switch (DI.D) {
  case DecodedOp::Add: case DecodedOp::Sub: case DecodedOp::Mul:
  case DecodedOp::Div: case DecodedOp::Rem: case DecodedOp::And:
  case DecodedOp::Or: case DecodedOp::Xor: case DecodedOp::Shl:
  case DecodedOp::Shr: case DecodedOp::CmpEq: case DecodedOp::CmpNe:
  case DecodedOp::CmpLt: case DecodedOp::CmpLe: case DecodedOp::CmpGt:
  case DecodedOp::CmpGe: case DecodedOp::FAdd: case DecodedOp::FSub:
  case DecodedOp::FMul: case DecodedOp::FDiv: case DecodedOp::FCmpEq:
  case DecodedOp::FCmpNe: case DecodedOp::FCmpLt: case DecodedOp::FCmpLe:
  case DecodedOp::FCmpGt: case DecodedOp::FCmpGe:
    R.Read1 = DI.A; R.Read2 = DI.B; R.Write = DI.Result;
    break;
  case DecodedOp::Neg: case DecodedOp::Not: case DecodedOp::FNeg:
  case DecodedOp::IntToFp: case DecodedOp::FpToInt: case DecodedOp::Copy:
    R.Read1 = DI.A; R.Write = DI.Result;
    break;
  case DecodedOp::LoadI: case DecodedOp::LoadF: case DecodedOp::LoadAddrAbs:
  case DecodedOp::LoadAddrFrame: case DecodedOp::ScalarLoadAbs:
  case DecodedOp::ScalarLoadFrame:
    R.Write = DI.Result;
    break;
  case DecodedOp::ScalarStoreAbs: case DecodedOp::ScalarStoreFrame:
    R.Read1 = DI.A;
    break;
  case DecodedOp::PtrLoad:
    R.Read1 = DI.A; R.Write = DI.Result;
    break;
  case DecodedOp::PtrStore:
    R.Read1 = DI.A; R.Read2 = DI.B;
    break;
  case DecodedOp::Call:
    R.Write = DI.Result;
    break;
  case DecodedOp::CallIndirect:
    R.Read1 = DI.A; R.Write = DI.Result;
    break;
  case DecodedOp::Br: case DecodedOp::RetVal:
    R.Read1 = DI.A;
    break;
  default: // Jmp, RetVoid, Fault
    break;
  }
  return R;
}

} // namespace

RegAllocResult rpcc::allocateBlockRegs(const DecodedFunction &DF) {
  RegAllocResult Res;
  const size_t NB = DF.BlockStarts.size();
  Res.Blocks.resize(NB);
  if (NB == 0 || DF.NumRegs == 0)
    return Res;

  // Dense per-register tallies, reset between blocks through the touched
  // list so a block costs O(its instructions), not O(NumRegs).
  std::vector<uint32_t> Uses(DF.NumRegs, 0);
  std::vector<uint8_t> Written(DF.NumRegs, 0);
  std::vector<Reg> Touched;
  Touched.reserve(32);

  auto touch = [&](Reg R, bool IsWrite) {
    if (R == NoReg || R >= DF.NumRegs)
      return;
    if (Uses[R] == 0 && Written[R] == 0)
      Touched.push_back(R);
    ++Uses[R];
    if (IsWrite)
      Written[R] = 1;
  };

  const uint32_t N = static_cast<uint32_t>(DF.Insts.size());
  for (size_t B = 0; B != NB; ++B) {
    const uint32_t Lo = DF.BlockStarts[B];
    const uint32_t Hi =
        B + 1 != NB ? DF.BlockStarts[B + 1] : N;
    for (uint32_t I = Lo; I < Hi && I < N; ++I) {
      OperandRoles OR = rolesOf(DF.Insts[I]);
      touch(OR.Read1, false);
      touch(OR.Read2, false);
      touch(OR.Write, true);
    }

    // Keep registers with at least two uses: one use saves exactly the
    // load/store it costs to establish. Rank by use count, register id
    // breaking ties so the assignment is deterministic.
    std::sort(Touched.begin(), Touched.end(), [&](Reg L, Reg R) {
      return Uses[L] != Uses[R] ? Uses[L] > Uses[R] : L < R;
    });
    BlockRegMap &Map = Res.Blocks[B];
    for (Reg R : Touched) {
      if (Map.NumSlots == JitRegPoolSize || Uses[R] < 2)
        break;
      Map.Slots[Map.NumSlots].R = R;
      Map.Slots[Map.NumSlots].Written = Written[R] != 0;
      ++Map.NumSlots;
    }
    Res.ResidentRegs += Map.NumSlots;

    for (Reg R : Touched) {
      Uses[R] = 0;
      Written[R] = 0;
    }
    Touched.clear();
  }
  return Res;
}
