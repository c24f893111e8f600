//===- ir/Opcode.h - ILOC-style opcode set ---------------------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the IL, including the paper's Table 1 hierarchy of
/// memory operations:
///
///   iLoad           -> LoadI / LoadF   (load a known constant value)
///   cLoad           -> ConstLoad       (load an invariant, unknown value)
///   sLoad / sStore  -> ScalarLoad / ScalarStore (value known to be scalar)
///   Load / Store    -> Load / Store    (general pointer-based form)
///
/// Every per-opcode fact lives in the one table below: the enumerator, its
/// printed mnemonic, its operand count, its result rule and its class flags.
/// The Opcode enum, opcodeName, the verifier's shape check, every is*Op
/// predicate and the register-to-register half of interp's DecodedOp are
/// all generated from it. Semantic switches (the engines, the constant
/// folder, the passes) stay hand-written.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_IR_OPCODE_H
#define RPCC_IR_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace rpcc {

/// Class flags of an opcode.
enum OpcodeFlag : uint16_t {
  OpPure = 1 << 0,   ///< result depends on operands only; touches no memory
  OpComm = 1 << 1,   ///< commutative binary operator
  OpLoad = 1 << 2,   ///< counts as a load executed (Figure 7)
  OpStore = 1 << 3,  ///< counts as a store executed (Figure 6)
  OpPtrMem = 1 << 4, ///< pointer-based memory op: carries a tag set
  OpTerm = 1 << 5,   ///< block terminator
  OpCall = 1 << 6,   ///< direct or indirect call
  OpTrap = 1 << 7,   ///< may fault at run time on some operand values
  OpFloat = 1 << 8,  ///< the result is always a double
};

/// Whether an instruction of the opcode defines a result register.
enum class OpResult : uint8_t { Def, None, Any };

// X(Enumerator, Mnemonic, operand count (-1: variable), OpResult, flags).
// Add through Copy compute a register from registers or an immediate alone;
// interp's DecodedOp starts with exactly these, in this order.
#define RPCC_REGISTER_OPCODES(X)                                               \
  /* Integer arithmetic, register-to-register. */                              \
  X(Add, "ADD", 2, Def, OpPure | OpComm)                                       \
  X(Sub, "SUB", 2, Def, OpPure)                                                \
  X(Mul, "MUL", 2, Def, OpPure | OpComm)                                       \
  X(Div, "DIV", 2, Def, OpPure | OpTrap)                                       \
  X(Rem, "REM", 2, Def, OpPure | OpTrap)                                       \
  X(And, "AND", 2, Def, OpPure | OpComm)                                       \
  X(Or, "OR", 2, Def, OpPure | OpComm)                                         \
  X(Xor, "XOR", 2, Def, OpPure | OpComm)                                       \
  X(Shl, "SHL", 2, Def, OpPure)                                                \
  X(Shr, "SHR", 2, Def, OpPure)                                                \
  /* Integer comparisons producing 0/1. */                                     \
  X(CmpEq, "CMPEQ", 2, Def, OpPure | OpComm)                                   \
  X(CmpNe, "CMPNE", 2, Def, OpPure | OpComm)                                   \
  X(CmpLt, "CMPLT", 2, Def, OpPure)                                            \
  X(CmpLe, "CMPLE", 2, Def, OpPure)                                            \
  X(CmpGt, "CMPGT", 2, Def, OpPure)                                            \
  X(CmpGe, "CMPGE", 2, Def, OpPure)                                            \
  /* Floating-point arithmetic and comparisons. */                             \
  X(FAdd, "FADD", 2, Def, OpPure | OpComm | OpFloat)                           \
  X(FSub, "FSUB", 2, Def, OpPure | OpFloat)                                    \
  X(FMul, "FMUL", 2, Def, OpPure | OpComm | OpFloat)                           \
  X(FDiv, "FDIV", 2, Def, OpPure | OpFloat)                                    \
  X(FCmpEq, "FCMPEQ", 2, Def, OpPure | OpComm)                                 \
  X(FCmpNe, "FCMPNE", 2, Def, OpPure | OpComm)                                 \
  X(FCmpLt, "FCMPLT", 2, Def, OpPure)                                          \
  X(FCmpLe, "FCMPLE", 2, Def, OpPure)                                          \
  X(FCmpGt, "FCMPGT", 2, Def, OpPure)                                          \
  X(FCmpGe, "FCMPGE", 2, Def, OpPure)                                          \
  /* Unary. */                                                                 \
  X(Neg, "NEG", 1, Def, OpPure)                                                \
  X(Not, "NOT", 1, Def, OpPure)                                                \
  X(FNeg, "FNEG", 1, Def, OpPure | OpFloat)                                    \
  X(IntToFp, "I2D", 1, Def, OpPure | OpFloat)                                  \
  X(FpToInt, "D2I", 1, Def, OpPure)                                            \
  /* Immediates (iLoad) and the coalescable register copy. */                  \
  X(LoadI, "LOADI", 0, Def, OpPure)                                            \
  X(LoadF, "LOADF", 0, Def, OpPure | OpFloat)                                  \
  X(Copy, "CP", 1, Def, OpPure)

#define RPCC_MEMORY_CONTROL_OPCODES(X)                                         \
  /* Address of a tag plus a constant byte offset. */                          \
  X(LoadAddr, "LDA", 0, Def, OpPure)                                           \
  /* Memory hierarchy (Table 1): cLoad, sLoad, sStore, Load, Store. */         \
  X(ConstLoad, "CLD", 1, Def, OpLoad | OpPtrMem)                               \
  X(ScalarLoad, "SLD", 0, Def, OpLoad)                                         \
  X(ScalarStore, "SST", 1, None, OpStore)                                      \
  X(Load, "PLD", 1, Def, OpLoad | OpPtrMem)                                    \
  X(Store, "PST", 2, None, OpStore | OpPtrMem)                                 \
  /* Control. Calls carry MOD/REF tag sets; their shape depends on the */      \
  /* callee, and Ret's on the function, so the verifier checks them apart. */  \
  X(Call, "JSR", -1, Any, OpCall)                                              \
  X(CallIndirect, "IJSR", -1, Any, OpCall)                                     \
  X(Br, "BR", 1, None, OpTerm)                                                 \
  X(Jmp, "JMP", 0, None, OpTerm)                                               \
  X(Ret, "RET", -1, Any, OpTerm)                                               \
  /* SSA phi (only present while a function is in SSA form). */               \
  X(Phi, "PHI", 0, Def, 0)

#define RPCC_OPCODE_LIST(X)                                                    \
  RPCC_REGISTER_OPCODES(X)                                                     \
  RPCC_MEMORY_CONTROL_OPCODES(X)

enum class Opcode : uint8_t {
#define RPCC_OPCODE_ENUM(E, ...) E,
  RPCC_OPCODE_LIST(RPCC_OPCODE_ENUM)
#undef RPCC_OPCODE_ENUM
};

/// One row of the opcode table.
struct OpcodeInfo {
  const char *Name; ///< printable mnemonic (ILOC-flavored)
  int8_t NumOps;    ///< exact operand count, or -1 for variable
  OpResult Result;
  uint16_t Flags; ///< OpcodeFlag bits
};

inline constexpr OpcodeInfo OpcodeTable[] = {
#define RPCC_OPCODE_INFO(E, Name, NumOps, Result, Flags)                       \
  {Name, NumOps, OpResult::Result, Flags},
    RPCC_OPCODE_LIST(RPCC_OPCODE_INFO)
#undef RPCC_OPCODE_INFO
};

/// Number of opcodes, for sizing per-opcode tables.
inline constexpr size_t NumOpcodes = std::size(OpcodeTable);

/// Number of register-to-register opcodes (Add through Copy).
inline constexpr size_t NumRegisterOpcodes =
    static_cast<size_t>(Opcode::Copy) + 1;

constexpr const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<size_t>(Op)];
}

constexpr bool hasOpcodeFlag(Opcode Op, uint16_t Flag) {
  return (opcodeInfo(Op).Flags & Flag) != 0;
}

/// Printable mnemonic for \p Op.
constexpr const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

constexpr bool isTerminator(Opcode Op) { return hasOpcodeFlag(Op, OpTerm); }
constexpr bool isCallOp(Opcode Op) { return hasOpcodeFlag(Op, OpCall); }
/// Dynamic "load executed" per the paper's Figure 7 metric.
constexpr bool isLoadOp(Opcode Op) { return hasOpcodeFlag(Op, OpLoad); }
/// Dynamic "store executed" per the paper's Figure 6 metric.
constexpr bool isStoreOp(Opcode Op) { return hasOpcodeFlag(Op, OpStore); }
constexpr bool isMemOp(Opcode Op) {
  return hasOpcodeFlag(Op, OpLoad | OpStore);
}
/// Pointer-based memory operations: the ones that carry tag sets.
constexpr bool isPointerMemOp(Opcode Op) { return hasOpcodeFlag(Op, OpPtrMem); }
/// Operations whose result is a pure function of their operands and that
/// touch no memory: candidates for value numbering, PRE, LICM and DCE.
constexpr bool isPureOp(Opcode Op) { return hasOpcodeFlag(Op, OpPure); }
/// Commutative binary operators (used by value numbering).
constexpr bool isCommutative(Opcode Op) { return hasOpcodeFlag(Op, OpComm); }
/// Operations that may fault at run time on some operand values.
constexpr bool mayTrap(Opcode Op) { return hasOpcodeFlag(Op, OpTrap); }
/// Operations whose result is always a double.
constexpr bool isFloatResult(Opcode Op) { return hasOpcodeFlag(Op, OpFloat); }

} // namespace rpcc

#endif // RPCC_IR_OPCODE_H
