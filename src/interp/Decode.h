//===- interp/Decode.h - Pre-decoded execution format -----------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast-path engine's one-time per-module lowering. Each function is
/// flattened into one dense DecodedInst array: branch targets become
/// instruction indices, global tag addresses and frame offsets are baked
/// into operands, callees are FuncIds, and (under profiling) every memory
/// operation carries its pre-packed profile slot. The step loop then runs
/// with zero hash lookups and no per-block indirection.
///
/// Decoding is observationally pure: it never faults and never counts.
/// IL conditions the reference (switch) engine only discovers at run time —
/// a scalar reference to an unallocated global, a foreign frame local, the
/// address of a heap summary tag, a phi that survived SSA destruction —
/// lower to DecodedOp::Fault records carrying the exact message the switch
/// engine would raise, so the two engines stay byte-identical even on
/// faulting programs.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_INTERP_DECODE_H
#define RPCC_INTERP_DECODE_H

#include "ir/Module.h"
#include "obs/TagProfile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rpcc {

// Address-space layout of the simulated machine. Both engines share it;
// decode bakes absolute addresses against the same constants the switch
// engine computes per step.
inline constexpr uint64_t InterpGlobalBase = 0x0000'0000'0000'1000ull;
inline constexpr uint64_t InterpStackBase = 0x0000'1000'0000'0000ull;
inline constexpr uint64_t InterpHeapBase = 0x0000'2000'0000'0000ull;
inline constexpr uint64_t InterpFuncBase = 0x7F00'0000'0000'0000ull;

/// Per-function frame layout: byte offsets of local/spill tags. Offsets is
/// ascending by tag id (binary-searched by the switch engine's tagAddress);
/// Spans is the reverse mapping (ascending start offsets), used by the tag
/// profiler to resolve a runtime stack address back to the tag owning it.
struct FrameLayout {
  std::vector<std::pair<TagId, uint32_t>> Offsets;
  std::vector<std::pair<uint32_t, TagId>> Spans;
  uint32_t Size = 0;

  /// Byte offset of \p T in this frame, or nullptr if the tag lives in some
  /// other function's frame.
  const uint32_t *offsetOf(TagId T) const;
};

/// Frame layouts for every function, indexed by FuncId. Built once from the
/// per-owner tag lists (Module::tagsOwnedBy), not by scanning the module tag
/// table per function.
std::vector<FrameLayout> computeFrameLayouts(const Module &M);

/// The global segment: initialized image, a dense TagId-indexed address
/// table, and the ascending (address, tag) spans the profiler resolves
/// pointer operands against.
struct GlobalLayout {
  static constexpr uint64_t NoAddr = ~uint64_t(0);

  std::vector<uint8_t> Image;
  /// Absolute address per tag id; NoAddr for tags without global storage.
  std::vector<uint64_t> AddrOfTag;
  std::vector<std::pair<uint64_t, TagId>> Spans;

  uint64_t addressOf(TagId T) const {
    return T < AddrOfTag.size() ? AddrOfTag[T] : NoAddr;
  }
};

GlobalLayout computeGlobalLayout(const Module &M);

/// Resolved opcode of one decoded instruction. The register-to-register
/// opcodes (Add through Copy) come first, generated from ir/Opcode.h with the
/// same values, so decoding one is a cast. Address-mode variants split the
/// tag-addressed operations the switch engine re-resolves every step: *Abs
/// carry a baked absolute address, *Frame a baked frame offset.
enum class DecodedOp : uint8_t {
#define RPCC_DECODED_SAME(E, ...) E,
  RPCC_REGISTER_OPCODES(RPCC_DECODED_SAME)
#undef RPCC_DECODED_SAME
  LoadAddrAbs, LoadAddrFrame,
  ScalarLoadAbs, ScalarLoadFrame,
  ScalarStoreAbs, ScalarStoreFrame,
  PtrLoad,  ///< Load and ConstLoad: address in a register
  PtrStore,
  Call, CallIndirect,
  Br, Jmp, RetVal, RetVoid,
  Fault, ///< raises a pre-formatted message (decode-time diagnosed IL)
};

inline constexpr size_t NumDecodedOps =
    static_cast<size_t>(DecodedOp::Fault) + 1;
static_assert(static_cast<size_t>(DecodedOp::LoadAddrAbs) == NumRegisterOpcodes,
              "DecodedOp must start with the register-to-register opcodes");

/// DecodedInst::Flags bits: the counting facts the step-loop prologue needs,
/// precomputed from the original opcode.
enum : uint8_t {
  DIFlagLoad = 1 << 0,    ///< counts as a Figure 7 load
  DIFlagStore = 1 << 1,   ///< counts as a Figure 6 store
  DIFlagMem = 1 << 2,     ///< profiled when a sink is attached
  DIFlagPtrProf = 1 << 3, ///< profile tag resolved from the runtime address
};

/// One pre-decoded instruction: fixed operand slots, no heap indirection.
/// Exactly 32 bytes, so two instructions share a cache line; the profile
/// slot of memory operations lives in DecodedFunction::ProfSlots.
struct DecodedInst {
  DecodedOp D = DecodedOp::Fault;
  /// Original opcode, kept so OpCounters::ByOpcode matches the switch
  /// engine exactly (Load and ConstLoad share PtrLoad, and the address-mode
  /// variants share one opcode).
  Opcode Op = Opcode::Phi;
  MemType MemTy = MemType::I64;
  uint8_t Flags = 0;
  Reg Result = NoReg;
  Reg A = NoReg; ///< first operand; arg count for Call; callee reg for IJSR
  Reg B = NoReg; ///< second operand
  /// LoadI immediate; LoadF bit pattern; baked absolute address (*Abs) or
  /// frame offset (*Frame), LoadAddr displacement already folded in; index
  /// into DecodedFunction::FaultMsgs for Fault.
  int64_t Imm = 0;
  /// Br taken / Jmp target instruction index; Callee FuncId for Call;
  /// argument pool base for CallIndirect.
  uint32_t T0 = 0;
  /// Br fallthrough instruction index; argument pool base for Call;
  /// argument count for CallIndirect.
  uint32_t T1 = 0;
};

static_assert(sizeof(DecodedInst) == 32,
              "DecodedInst must stay two-per-cache-line");

/// One function lowered to a flat instruction stream. Blocks are
/// concatenated in block-id order; entry is instruction 0.
struct DecodedFunction {
  std::vector<DecodedInst> Insts;
  /// Pre-packed DenseProfileSink slot per instruction, parallel to Insts:
  /// the full slot for scalar-addressed memory ops, the row base (slot of
  /// NoTag) for pointer-based ones, 0 elsewhere. Empty unless the module
  /// was decoded with a sink attached.
  std::vector<uint32_t> ProfSlots;
  /// Call argument registers, referenced by (pool base, count) operands.
  std::vector<Reg> ArgPool;
  /// Messages of DecodedOp::Fault records.
  std::vector<std::string> FaultMsgs;
  std::vector<Reg> ParamRegs;
  /// Instruction index of every block's first instruction, in block-id
  /// order (ascending). Exposes the block structure to the JIT tier: block
  /// boundaries are its register-residency and deferred-counter flush
  /// points, and branch targets are exactly this set.
  std::vector<uint32_t> BlockStarts;
  uint32_t NumRegs = 0;
  uint32_t FrameSize = 0;
  FuncId Id = NoFunc;
  BuiltinKind Builtin = BuiltinKind::None;
  bool HasBody = false;
};

struct DecodedModule {
  std::vector<DecodedFunction> Funcs;
};

/// Lowers every function of \p M against the given layouts. \p Sink, when
/// non-null, must be initialized from the same module's ProfileMeta; memory
/// operations then carry pre-packed profile slots. The fast path and the
/// JIT share the one stream; the JIT fuses adjacent pairs itself at emit
/// time (jit/JitEmitter.cpp).
DecodedModule decodeModule(const Module &M, const GlobalLayout &GL,
                           const std::vector<FrameLayout> &Layouts,
                           const DenseProfileSink *Sink);

} // namespace rpcc

#endif // RPCC_INTERP_DECODE_H
