//===- opt/ConstFold.cpp --------------------------------------------------===//

#include "opt/ConstFold.h"

#include "support/Arith.h"

#include <bit>

using namespace rpcc;

std::optional<uint64_t> rpcc::foldConstant(Opcode Op, uint64_t A, uint64_t B) {
  const int64_t IA = static_cast<int64_t>(A), IB = static_cast<int64_t>(B);
  const double DA = std::bit_cast<double>(A), DB = std::bit_cast<double>(B);
  auto Flt = [](double D) { return std::bit_cast<uint64_t>(D); };
  // Given two NaNs, which payload survives depends on how the host compiler
  // ordered the operands (it may swap those of FADD and FMUL): leave that to
  // the engine rather than guess differently.
  if (isFloatResult(Op) && opcodeInfo(Op).NumOps == 2 && DA != DA && DB != DB)
    return std::nullopt;
  switch (Op) {
  case Opcode::Add: return wrapAdd(A, B);
  case Opcode::Sub: return wrapSub(A, B);
  case Opcode::Mul: return wrapMul(A, B);
  case Opcode::Div:
    if (divFaults(IA, IB))
      return std::nullopt;
    return static_cast<uint64_t>(sdiv(IA, IB));
  case Opcode::Rem:
    if (IB == 0)
      return std::nullopt;
    return static_cast<uint64_t>(srem(IA, IB));
  case Opcode::And: return A & B;
  case Opcode::Or: return A | B;
  case Opcode::Xor: return A ^ B;
  case Opcode::Shl: return shiftLeft(A, B);
  case Opcode::Shr: return shiftRightArith(A, B);
  case Opcode::CmpEq: return uint64_t(A == B);
  case Opcode::CmpNe: return uint64_t(A != B);
  case Opcode::CmpLt: return uint64_t(IA < IB);
  case Opcode::CmpLe: return uint64_t(IA <= IB);
  case Opcode::CmpGt: return uint64_t(IA > IB);
  case Opcode::CmpGe: return uint64_t(IA >= IB);
  case Opcode::FAdd: return Flt(DA + DB);
  case Opcode::FSub: return Flt(DA - DB);
  case Opcode::FMul: return Flt(DA * DB);
  case Opcode::FDiv: return Flt(DA / DB);
  case Opcode::FCmpEq: return uint64_t(DA == DB);
  case Opcode::FCmpNe: return uint64_t(DA != DB);
  case Opcode::FCmpLt: return uint64_t(DA < DB);
  case Opcode::FCmpLe: return uint64_t(DA <= DB);
  case Opcode::FCmpGt: return uint64_t(DA > DB);
  case Opcode::FCmpGe: return uint64_t(DA >= DB);
  case Opcode::Neg: return wrapNeg(A);
  case Opcode::Not: return ~A;
  case Opcode::FNeg: return Flt(-DA);
  case Opcode::IntToFp: return Flt(static_cast<double>(IA));
  case Opcode::FpToInt: return static_cast<uint64_t>(fpToIntSat(DA));
  default:
    return std::nullopt;
  }
}
