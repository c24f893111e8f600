//===- opt/ConstFold.h - Constant folding of IL operations ------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one constant folder of the IL, shared by value numbering and SCCP.
/// Operands and result are 64-bit patterns (a double's bits where the
/// operation reads or writes doubles; isFloatResult says which results are).
/// The semantics are support/Arith.h's, so a folded value is bit-for-bit the
/// value the interpreter would compute (ConstFoldTest pins this against the
/// reference switch engine).
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_OPT_CONSTFOLD_H
#define RPCC_OPT_CONSTFOLD_H

#include "ir/Opcode.h"

#include <cstdint>
#include <optional>

namespace rpcc {

/// Folds the register-to-register operation \p Op over the constant operands
/// \p A and \p B (unary operations ignore \p B). Returns nullopt for an
/// opcode that is not arithmetic (immediates, copies, memory, control) and
/// wherever the operation stays a runtime fault: x / 0, x % 0 and
/// INT64_MIN / -1. Float arithmetic over two NaNs is not folded either: the
/// host picks one operand's payload, so only the engine knows which.
std::optional<uint64_t> foldConstant(Opcode Op, uint64_t A, uint64_t B = 0);

} // namespace rpcc

#endif // RPCC_OPT_CONSTFOLD_H
