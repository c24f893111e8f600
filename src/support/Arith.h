//===- support/Arith.h - Defined-behavior IL arithmetic ---------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One source of truth for the IL's integer semantics. The engines and the
/// constant folder (opt/ConstFold, shared by value numbering and SCCP) must
/// agree bit-for-bit — ConstFoldTest checks the folder against the switch
/// engine over edge operands — and none of them may commit host-level
/// undefined behavior while doing so:
/// the differential fuzzer compiles the same program many ways and demands
/// identical observable behavior, so "the optimizer folded it one way and
/// the interpreter computed it another" is a reportable bug, and a host
/// signed-overflow trap under UBSan is a crash.
///
/// Semantics:
///   * Add/Sub/Mul/Neg wrap modulo 2^64 (computed in uint64_t).
///   * Shl/Shr use only the low 6 bits of the shift amount; Shr is
///     arithmetic (sign-propagating).
///   * Div traps at runtime for divisor 0 and for INT64_MIN / -1 (the one
///     quotient that does not fit); the constant folder must leave both
///     cases in the code as runtime events.
///   * Rem traps for divisor 0; INT64_MIN % -1 is defined as 0 (the value
///     the mathematical remainder has, and what hardware without the
///     overflow trap would produce).
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_SUPPORT_ARITH_H
#define RPCC_SUPPORT_ARITH_H

#include <cstdint>

namespace rpcc {

inline uint64_t wrapAdd(uint64_t A, uint64_t B) { return A + B; }
inline uint64_t wrapSub(uint64_t A, uint64_t B) { return A - B; }
inline uint64_t wrapMul(uint64_t A, uint64_t B) { return A * B; }
inline uint64_t wrapNeg(uint64_t A) { return uint64_t(0) - A; }

/// True when signed division (or the quotient part of C's truncating
/// division) would fault: divisor 0, or the unrepresentable INT64_MIN / -1.
inline bool divFaults(int64_t L, int64_t R) {
  return R == 0 || (L == INT64_MIN && R == -1);
}

/// Signed division; caller must have screened with divFaults().
inline int64_t sdiv(int64_t L, int64_t R) { return L / R; }

/// Signed remainder with the one extra defined case: INT64_MIN % -1 == 0.
/// Divisor 0 still faults; caller screens with R == 0.
inline int64_t srem(int64_t L, int64_t R) {
  if (L == INT64_MIN && R == -1)
    return 0;
  return L % R;
}

/// Left shift with the amount masked to [0, 63], wrapping semantics.
inline uint64_t shiftLeft(uint64_t V, uint64_t Amt) { return V << (Amt & 63); }

/// Arithmetic right shift with the amount masked to [0, 63]. C++20 defines
/// signed right shift as sign-propagating, so the cast dance is exact.
inline uint64_t shiftRightArith(uint64_t V, uint64_t Amt) {
  return static_cast<uint64_t>(static_cast<int64_t>(V) >> (Amt & 63));
}

/// Saturating double -> int64 conversion: NaN -> 0, out-of-range clamps.
/// A plain static_cast of NaN or an out-of-range double is UB in C++; every
/// FpToInt in the system (engines, constant folder, initializer evaluation)
/// must produce this exact value.
inline int64_t fpToIntSat(double V) {
  if (V != V) // NaN
    return 0;
  if (V >= 9.2233720368547748e18)
    return INT64_MAX;
  if (V <= -9.2233720368547758e18)
    return INT64_MIN;
  return static_cast<int64_t>(V);
}

} // namespace rpcc

#endif // RPCC_SUPPORT_ARITH_H
