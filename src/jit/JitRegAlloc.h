//===- jit/JitRegAlloc.h - Block-local host register allocation -*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps the hottest IL registers of each basic block into the free
/// caller-saved host registers, completing at the machine level what
/// register promotion starts at the IL level: a promoted scalar should not
/// be re-materialized through a load/store pair against the in-memory
/// register file on every use.
///
/// The scope is deliberately a single block (plus, in the emitter, the back
/// edge of single-block loops, which keeps the residency live across
/// iterations): residency is established by loading every mapped register
/// at block entry and retired by storing the statically-written ones at
/// block exit and before every call/shim that can observe or modify the
/// register file. Between those points the memory file may be stale — but
/// no interpreter-observable event can happen between them, so the fast
/// path could never tell the difference.
///
/// The allocation itself is a per-block popularity contest, not a lifetime
/// analysis: count uses, keep every register used at least twice, hand the
/// top ones a host register each. That is exactly the right cost model for
/// a template JIT — the win is proportional to uses replaced, and a
/// register used once costs as much to establish as it saves.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_JIT_JITREGALLOC_H
#define RPCC_JIT_JITREGALLOC_H

#include "interp/Decode.h"

#include <cstdint>
#include <vector>

namespace rpcc {

/// Number of host registers the emitter leaves free for residency: the
/// caller-saved set minus the scratch registers the templates compute in
/// (rax/rcx/rdx and the SysV shim argument path reuse those).
inline constexpr unsigned JitRegPoolSize = 6;

/// One block's residency decision: up to JitRegPoolSize IL registers, each
/// assigned a pool slot (the emitter owns the slot -> host register table).
struct BlockRegMap {
  struct SlotInfo {
    Reg R = NoReg;
    /// Statically written inside the block: the slot must be stored back to
    /// the memory register file at block exit and shim writeback points.
    /// (Storing a mapped-but-unwritten register would also be sound — it
    /// holds the loaded value — this flag only trims silent stores.)
    bool Written = false;
  };
  SlotInfo Slots[JitRegPoolSize];
  uint8_t NumSlots = 0;

  /// Pool slot caching \p R in this block, or -1 when it stays in memory.
  /// Linear over <= 6 entries — faster than any map at this size.
  int slotOf(Reg R) const {
    for (unsigned S = 0; S != NumSlots; ++S)
      if (Slots[S].R == R)
        return static_cast<int>(S);
    return -1;
  }
};

/// Per-function result, parallel to DecodedFunction::BlockStarts.
struct RegAllocResult {
  std::vector<BlockRegMap> Blocks;
  /// Total slots assigned across all blocks (the jit.regalloc_resident_regs
  /// metric's contribution from this function).
  size_t ResidentRegs = 0;
};

/// Decides residency for every block of \p DF (operand roles are
/// enumerated per DecodedOp).
RegAllocResult allocateBlockRegs(const DecodedFunction &DF);

} // namespace rpcc

#endif // RPCC_JIT_JITREGALLOC_H
