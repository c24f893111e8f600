//===- jit/JitEmitter.cpp - Optimizing x86-64 template emitter ------------===//
//
// Lowers decoded instruction streams to native code. On top of the
// baseline templates this tier performs block-local host register residency
// (JitRegAlloc.h), superinstruction fusion of adjacent pairs,
// segment-granular budget checks, deferred counter accumulation, and
// relocatable code emission so compiled functions can be shared through the
// code cache.
//
// Register convention inside a compiled function:
//   callee-saved pins (live across shim calls):
//     r15  JitRT*                     rbx  &RegArena[RegBase] (the frame's R)
//     r12  Counters.Total (+ steps     r13  StackMem.data() + FrameOff
//          the open segment has yet
//          to run; see Counting)
//     rbp  &PerFunc[fid]              r14  &Counters.ByOpcode[0]
//     [rsp]    RegBase                [rsp+8]  FrameOff
//     [rsp+16] FC.Total delta base (per-function share = r12 - this)
//   caller-saved:
//     rax/rcx/rdx, xmm0/xmm1          template scratch
//     rsi/rdi/r8-r11                  block-residency pool (JitRegAlloc);
//                                     written back before and reloaded after
//                                     every C call out of the template body
// rbx/r13 are rebased from JitRT after every call (the arenas may have
// reallocated); r12 is flushed to JitRT::TotalCell around calls and exits,
// mirroring the fast path's RPCC_FLUSH/RELOAD_COUNTERS discipline exactly.
//
// Counting. The unit is the counting segment: a basic block, split at calls.
// Unprofiled code runs no per-step prologue. A segment's entry pays its
// steps in advance: it adds the segment's static step count L to r12 (a
// fused pair counts 2) and compares the sum once against JitRT::Horizon, the
// smaller of MaxSteps and the last step before the next 64K wall-deadline
// poll point. Past the horizon, a cold path calls the segment shim before
// any of the segment's steps runs. The shim polls the deadline when the
// segment crosses a poll point and re-arms the horizon. When MaxSteps itself
// falls inside the segment, the cold path runs the segment's per-step copy:
// the unfused templates, each behind the bounded prologue (Total++ against
// MaxSteps), so the step-limit fault lands on the exact step. Profiled code
// keeps that per-step prologue, plus the 64K poll, on every step.
// Inside a segment r12 runs ahead of the executed steps. Every mid-segment
// fault site (memory shims, div/rem, Fault records) moves it back to the
// faulting step on its cold path; calls and returns end their segments; so
// Total is exact wherever it can be observed.
// The ByOpcode / per-function / load/store tallies are DEFERRED too: a
// static per-segment count table is added at the segment's exits, and
// every fault path reconstructs the partial segment's counts by walking the
// decoded stream through the flush shim — at the precise step index the
// fast path would have counted to. The shim finds the segment's base Total
// and first instruction index in JitRT cells, which per-step code writes at
// segment entry and fast code writes only on its way to a fault.
// Fault taxonomy: shim faults (memory, div/rem, decode-time Fault records)
// are "prologue-complete" — the faulting instruction is fully counted, like
// both interpreters count it; step-limit faults, and the per-step deadline
// faults of profiled code, exclude the faulting step (the interpreters raise
// before the ByOpcode bump); a segment-entry deadline fault strikes between
// steps, so it excludes nothing and ByOpcode sums to Total.
//
// Relocation. Emitted code bakes no per-Machine pointers: counter arrays,
// the global image, and heap/stack segments are reached through JitRT
// cells, and DecodedFunction-relative operands (argument pools, fault
// messages) are passed to the shims as offsets resolved via JitRT::CurFn.
// What IS baked — immediates, profile slots, frame offsets, the global
// image size, the function id — is covered by the code-cache key.
//
//===----------------------------------------------------------------------===//

#include "jit/Jit.h"

#include "jit/JitRegAlloc.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if RPCC_JIT_AVAILABLE
#include <sys/mman.h>
#endif

using namespace rpcc;

bool rpcc::jitSupported() { return RPCC_JIT_AVAILABLE != 0; }

JitProgram::JitProgram(size_t NumFuncs, uint64_t GlobalSize, bool Profiled)
    : GlobalSize(GlobalSize), Profiled(Profiled), Entries(NumFuncs),
      Declined(NumFuncs), Stats(NumFuncs) {
  // vector value-initialization of std::atomic is only guaranteed zeroing
  // from C++20; make the initial state explicit.
  for (auto &E : Entries)
    E.store(nullptr, std::memory_order_relaxed);
  for (auto &D : Declined)
    D.store(0, std::memory_order_relaxed);
}

JitProgram::~JitProgram() {
#if RPCC_JIT_AVAILABLE
  for (const Chunk &C : Chunks)
    ::munmap(C.Mem, C.Size);
#endif
}

#if !RPCC_JIT_AVAILABLE

JitProgram::Entry JitProgram::compile(const DecodedFunction &DF,
                                      uint64_t &OutCompileUs) {
  OutCompileUs = 0;
  if (DF.Id < Declined.size())
    Declined[DF.Id].store(1, std::memory_order_release);
  return nullptr;
}

void JitProgram::recordRun(const std::vector<uint8_t> &) const {}

#else // RPCC_JIT_AVAILABLE

static_assert(std::is_standard_layout_v<JitRT>,
              "emitted code addresses JitRT by offsetof");
static_assert(sizeof(FunctionCounters) == 24 &&
                  offsetof(FunctionCounters, Loads) == 8 &&
                  offsetof(FunctionCounters, Stores) == 16,
              "emitted code addresses FunctionCounters by fixed offsets");

static_assert(static_cast<size_t>(DecodedOp::Call) + 7 == NumDecodedOps,
              "segmentLast relies on Call..Fault closing the DecodedOp enum");

namespace {

enum : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

/// Pool slot -> host register for block residency (JitRegAlloc slots).
constexpr uint8_t PoolReg[JitRegPoolSize] = {RSI, RDI, R8, R9, R10, R11};

/// Raw little-endian x86-64 encoder over a byte vector. Only the handful of
/// forms the templates need; every emit helper encodes REX/ModRM/SIB itself
/// so the call sites read like assembly.
class Asm {
public:
  explicit Asm(std::vector<uint8_t> &Code) : C(Code) {}

  size_t pos() const { return W; }
  /// Guarantees \p N bytes of unchecked headroom past the cursor. Called
  /// once per template, so b() is a single store — compile time is on the
  /// critical path of lazy first calls and a per-byte capacity check
  /// dominated it.
  void ensure(size_t N) {
    if (W + N > C.size())
      C.resize(std::max(C.size() * 2, W + N));
  }
  void b(uint8_t X) { C[W++] = X; }
  void d32(uint32_t X) {
    for (int I = 0; I != 4; ++I)
      b(static_cast<uint8_t>(X >> (I * 8)));
  }
  void d64(uint64_t X) {
    for (int I = 0; I != 8; ++I)
      b(static_cast<uint8_t>(X >> (I * 8)));
  }
  void patch32(size_t At, uint32_t X) {
    for (int I = 0; I != 4; ++I)
      C[At + I] = static_cast<uint8_t>(X >> (I * 8));
  }

  /// [Base + Disp] memory operand for register field \p Reg (both full
  /// 4-bit numbers). No index registers; RSP-encoded bases get the trivial
  /// SIB, RBP-encoded bases get a forced displacement.
  void mem(uint8_t Reg, uint8_t Base, int32_t Disp) {
    uint8_t RegLow = Reg & 7, BaseLow = Base & 7;
    bool Sib = BaseLow == 4;
    uint8_t Mod = (Disp == 0 && BaseLow != 5) ? 0
                  : (Disp >= -128 && Disp <= 127) ? 1
                                                  : 2;
    b(static_cast<uint8_t>(Mod << 6 | RegLow << 3 | (Sib ? 4 : BaseLow)));
    if (Sib)
      b(0x24);
    if (Mod == 1)
      b(static_cast<uint8_t>(Disp));
    else if (Mod == 2)
      d32(static_cast<uint32_t>(Disp));
  }
  void rex(bool W, uint8_t Reg, uint8_t Base) {
    b(static_cast<uint8_t>(0x40 | (W << 3) | ((Reg >> 3) << 2) |
                           (Base >> 3)));
  }
  void modrmRR(uint8_t Reg, uint8_t Rm) {
    b(static_cast<uint8_t>(0xC0 | (Reg & 7) << 3 | (Rm & 7)));
  }

  // mov r64, [base+disp] / mov [base+disp], r64
  void movRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x8B); mem(R, Base, D);
  }
  void movMR(uint8_t Base, int32_t D, uint8_t R) {
    rex(1, R, Base); b(0x89); mem(R, Base, D);
  }
  void movRR(uint8_t Dst, uint8_t Src) {
    rex(1, Src, Dst); b(0x89); modrmRR(Src, Dst);
  }
  /// mov r64, imm (movabs, or the sign-extended imm32 form when it fits).
  void movRI(uint8_t R, uint64_t V) {
    int64_t S = static_cast<int64_t>(V);
    if (S >= INT32_MIN && S <= INT32_MAX) {
      rex(1, 0, R); b(0xC7); modrmRR(0, R); d32(static_cast<uint32_t>(V));
    } else {
      rex(1, 0, R); b(static_cast<uint8_t>(0xB8 | (R & 7))); d64(V);
    }
  }
  /// mov r32, imm32 (zero-extends; for shim arguments).
  void movRI32(uint8_t R, uint32_t V) {
    if (R >= 8)
      b(0x41);
    b(static_cast<uint8_t>(0xB8 | (R & 7)));
    d32(V);
  }
  /// mov dword [base+disp], imm32 (zero-extends into the 64-bit cell when
  /// the cell's upper half is already zero — JitRT keeps those cells
  /// 32-bit-written only).
  void movMI32(uint8_t Base, int32_t D, uint32_t V) {
    if (Base >= 8)
      b(0x41);
    b(0xC7); mem(0, Base, D); d32(V);
  }
  // Integer ALU, reg <- reg OP [base+disp]. Opcodes: add 03, sub 2B,
  // and 23, or 0B, xor 33, cmp 3B.
  void aluRM(uint8_t Opc, uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(Opc); mem(R, Base, D);
  }
  // Same opcodes, reg <- reg OP reg.
  void aluRR(uint8_t Opc, uint8_t Dst, uint8_t Src) {
    rex(1, Dst, Src); b(Opc); modrmRR(Dst, Src);
  }
  /// Group-1 ALU with immediate: \p Ext is the /digit (add 0, sub 5, cmp 7).
  void aluRI(uint8_t Ext, uint8_t R, int32_t Imm) {
    rex(1, 0, R);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83); modrmRR(Ext, R); b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81); modrmRR(Ext, R); d32(static_cast<uint32_t>(Imm));
    }
  }
  void imulRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x0F); b(0xAF); mem(R, Base, D);
  }
  void imulRR(uint8_t Dst, uint8_t Src) {
    rex(1, Dst, Src); b(0x0F); b(0xAF); modrmRR(Dst, Src);
  }
  /// imul r64, r64, imm32.
  void imulRRI(uint8_t Dst, uint8_t Src, int32_t Imm) {
    rex(1, Dst, Src); b(0x69); modrmRR(Dst, Src);
    d32(static_cast<uint32_t>(Imm));
  }
  void incM(uint8_t Base, int32_t D) {
    rex(1, 0, Base); b(0xFF); mem(0, Base, D);
  }
  /// add qword [base+disp], imm.
  void addMI(uint8_t Base, int32_t D, int32_t Imm) {
    rex(1, 0, Base);
    if (Imm >= -128 && Imm <= 127) {
      b(0x83); mem(0, Base, D); b(static_cast<uint8_t>(Imm));
    } else {
      b(0x81); mem(0, Base, D); d32(static_cast<uint32_t>(Imm));
    }
  }
  void decR(uint8_t R) { rex(1, 0, R); b(0xFF); modrmRR(1, R); }
  void leaRM(uint8_t R, uint8_t Base, int32_t D) {
    rex(1, R, Base); b(0x8D); mem(R, Base, D);
  }
  void testRR(uint8_t A, uint8_t B2) {
    rex(1, B2, A); b(0x85); modrmRR(B2, A);
  }
  void setcc(uint8_t CC, uint8_t R8Low) { // al/cl only, no REX
    b(0x0F); b(static_cast<uint8_t>(0x90 | CC)); modrmRR(0, R8Low);
  }
  void movzxEaxAl() { b(0x0F); b(0xB6); modrmRR(0, 0); }
  void movzxEcxCl() { b(0x0F); b(0xB6); modrmRR(RCX, RCX); }
  void callM(uint8_t Base, int32_t D) { // call qword [base+disp]
    if (Base >= 8)
      b(0x41);
    b(0xFF); mem(2, Base, D);
  }
  // SSE scalar double. movsd load F2 0F 10, store F2 0F 11; ALU opcodes:
  // addsd 58, mulsd 59, subsd 5C, divsd 5E; ucomisd is 66 0F 2E.
  void sseRM(uint8_t Pfx, uint8_t Opc, uint8_t X, uint8_t Base, int32_t D) {
    b(Pfx);
    if (Base >= 8)
      rex(0, X, Base);
    b(0x0F); b(Opc); mem(X, Base, D);
  }
  void sseRR(uint8_t Pfx, uint8_t Opc, uint8_t X, uint8_t X2) {
    b(Pfx); b(0x0F); b(Opc); modrmRR(X, X2);
  }
  void movsdRM(uint8_t X, uint8_t Base, int32_t D) {
    sseRM(0xF2, 0x10, X, Base, D);
  }
  void movsdMR(uint8_t Base, int32_t D, uint8_t X) {
    sseRM(0xF2, 0x11, X, Base, D);
  }
  /// movq xmm <- r64 / r64 <- xmm (the residency bridge for FP templates).
  void movqXR(uint8_t X, uint8_t R) {
    b(0x66); rex(1, X, R); b(0x0F); b(0x6E); modrmRR(X, R);
  }
  void movqRX(uint8_t R, uint8_t X) {
    b(0x66); rex(1, X, R); b(0x0F); b(0x7E); modrmRR(X, R);
  }

private:
  std::vector<uint8_t> &C;
  size_t W = 0; ///< write cursor; C.size() is capacity, pos() is length
};

/// Pending rel32 to an instruction-index / block / stub label.
struct Fixup {
  size_t Pos;     ///< offset of the 4 rel bytes
  uint32_t Label;
};

// Stub labels appended after the instruction, block-body, and loop-thunk
// labels. Order matters for the fall-throughs noted in emit().
enum : uint32_t {
  StubStep = 0,       ///< step-limit raise, then partial-count flush
  StubFaultLimit = 1, ///< flush excluding the faulting step, then unwind
  StubDeadline = 2,   ///< profiled code's 64K wall poll (reached by call)
  StubFaultP = 3,     ///< flush including the faulting step, then unwind
  StubFault = 4,      ///< zero the return value, fall into the epilogue
  StubEpi = 5,
  NumStubs = 6,
};

constexpr int32_t OffTotal = offsetof(JitRT, TotalCell);
constexpr int32_t OffMaxSteps = offsetof(JitRT, MaxSteps);
constexpr int32_t OffHorizon = offsetof(JitRT, Horizon);
constexpr int32_t OffLoadsAcc = offsetof(JitRT, LoadsAcc);
constexpr int32_t OffStoresAcc = offsetof(JitRT, StoresAcc);
constexpr int32_t OffRegArena = offsetof(JitRT, RegArenaData);
constexpr int32_t OffStackData = offsetof(JitRT, StackData);
constexpr int32_t OffFault = offsetof(JitRT, FaultCell);
constexpr int32_t OffByOpBase = offsetof(JitRT, ByOpcodeBase);
constexpr int32_t OffPerFnBase = offsetof(JitRT, PerFuncBase);
constexpr int32_t OffGlobalData = offsetof(JitRT, GlobalData);
constexpr int32_t OffHeapData = offsetof(JitRT, HeapData);
constexpr int32_t OffHeapSize = offsetof(JitRT, HeapSize);
constexpr int32_t OffStackSize = offsetof(JitRT, StackSize);
constexpr int32_t OffBlockSnap = offsetof(JitRT, BlockSnap);
constexpr int32_t OffBlockFirst = offsetof(JitRT, BlockFirst);
constexpr int32_t OffCurFn = offsetof(JitRT, CurFn);

class FunctionEmitter {
public:
  FunctionEmitter(const DecodedFunction &DF, uint64_t GlobalSize,
                  bool Profiled, const RegAllocResult &RA, Asm &A)
      : DF(DF), GlobalSize(GlobalSize), Profiled(Profiled), RA(RA), A(A) {}

  /// Emits the whole function; returns false on a malformed stream or
  /// frame layout, or when a fixup overflows rel32.
  bool emit();

  size_t fusedPairs() const { return NFused; }

private:
  // -- Label plumbing ---------------------------------------------------------
  void label(uint32_t L) { LabelOff[L] = A.pos(); }
  void jmpTo(uint32_t L) { A.b(0xE9); ref(L); }
  void jccTo(uint8_t CC, uint32_t L) {
    A.b(0x0F); A.b(static_cast<uint8_t>(0x80 | CC)); ref(L);
  }
  void callTo(uint32_t L) { A.b(0xE8); ref(L); }
  void ref(uint32_t L) {
    Fixups.push_back({A.pos(), L});
    A.d32(0);
  }
  uint32_t bodyLabel(uint32_t B) const { return N + B; }
  uint32_t thunkLabel(uint32_t B) const { return N + NB + B; }
  uint32_t stub(uint32_t S) const { return N + 2 * NB + S; }
  /// Fresh label past the fixed ones (segment cold paths and resumptions).
  uint32_t newLabel() {
    LabelOff.push_back(0);
    return static_cast<uint32_t>(LabelOff.size() - 1);
  }

  // Short forward branches inside one template, patched immediately when the
  // target is reached (the label/Fixup machinery is for inter-instruction
  // control flow).
  size_t jccFwd(uint8_t CC) {
    A.b(0x0F); A.b(static_cast<uint8_t>(0x80 | CC));
    size_t P = A.pos();
    A.d32(0);
    return P;
  }
  size_t jmpFwd() {
    A.b(0xE9);
    size_t P = A.pos();
    A.d32(0);
    return P;
  }
  void bindFwd(size_t P) {
    A.patch32(P, static_cast<uint32_t>(A.pos() - (P + 4)));
  }

  // -- Residency helpers ------------------------------------------------------
  int32_t regOff(Reg R) const { return static_cast<int32_t>(R) * 8; }
  int slotOf(Reg R) const { return Cur ? Cur->slotOf(R) : -1; }
  /// Value of IL register \p R into host register \p Dst.
  void loadGP(uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movRR(Dst, PoolReg[S]);
    else
      A.movRM(Dst, RBX, regOff(R));
  }
  /// Defines IL register \p R from host register \p Src: the resident copy
  /// when mapped (memory catches up at the next writeback), memory
  /// otherwise.
  void storeFromGP(Reg R, uint8_t Src) {
    int S = slotOf(R);
    if (S >= 0)
      A.movRR(PoolReg[S], Src);
    else
      A.movMR(RBX, regOff(R), Src);
  }
  void aluWithReg(uint8_t Opc, uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.aluRR(Opc, Dst, PoolReg[S]);
    else
      A.aluRM(Opc, Dst, RBX, regOff(R));
  }
  void imulWithReg(uint8_t Dst, Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.imulRR(Dst, PoolReg[S]);
    else
      A.imulRM(Dst, RBX, regOff(R));
  }
  void loadX0(Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movqXR(0, PoolReg[S]);
    else
      A.movsdRM(0, RBX, regOff(R));
  }
  void storeX0(Reg R) {
    int S = slotOf(R);
    if (S >= 0)
      A.movqRX(PoolReg[S], 0);
    else
      A.movsdMR(RBX, regOff(R), 0);
  }
  /// xmm0 <- xmm0 OP value(R), SSE opcode \p Opc (prefix F2).
  void sseWithReg(uint8_t Opc, Reg R) {
    int S = slotOf(R);
    if (S >= 0) {
      A.movqXR(1, PoolReg[S]);
      A.sseRR(0xF2, Opc, 0, 1);
    } else {
      A.sseRM(0xF2, Opc, 0, RBX, regOff(R));
    }
  }
  /// ucomisd value(First), value(Second).
  void ucomisdRegs(Reg First, Reg Second) {
    loadX0(First);
    int S = slotOf(Second);
    if (S >= 0) {
      A.movqXR(1, PoolReg[S]);
      A.sseRR(0x66, 0x2E, 0, 1);
    } else {
      A.sseRM(0x66, 0x2E, 0, RBX, regOff(Second));
    }
  }
  /// Establishes residency at block entry / after a C call clobbered the
  /// caller-saved pool.
  void reloadAll() {
    if (!Cur)
      return;
    for (unsigned S = 0; S != Cur->NumSlots; ++S)
      A.movRM(PoolReg[S], RBX, regOff(Cur->Slots[S].R));
  }
  /// Retires residency: store statically-written slots back to the memory
  /// register file. Emits only movs, so it is flag-transparent (terminators
  /// rely on that to write back between a compare and its jcc).
  void writeback() {
    if (!Cur)
      return;
    for (unsigned S = 0; S != Cur->NumSlots; ++S)
      if (Cur->Slots[S].Written)
        A.movMR(RBX, regOff(Cur->Slots[S].R), PoolReg[S]);
  }

  // -- Counting-segment helpers -----------------------------------------------
  /// Index of the instruction that closes the segment starting at \p First:
  /// the first call, terminator or Fault record (or the block's last
  /// instruction in a malformed stream, which emitInst then declines).
  uint32_t segmentLast(uint32_t First) const {
    uint32_t J = First;
    for (; J + 1 < N && !IsBlockStart[J + 1]; ++J)
      if (DF.Insts[J].D >= DecodedOp::Call)
        break;
    return J;
  }
  /// An unprofiled segment's span and its two labels: the out-of-line cold
  /// path and the resumption point after the horizon check.
  struct ColdSeg {
    uint32_t First, Last, Cold, Resume;
  };
  /// Opens the segment starting at \p First; r12 is still exact here.
  /// Per-step code records the segment's base Total and first instruction
  /// for the flush shim; fast code leaves that to its cold paths.
  void segOpen(uint32_t First) {
    SegFirst = First;
    SegLast = segmentLast(First);
    if (Profiled)
      emitSegCells(First);
  }
  void emitSegCells(uint32_t First) {
    A.movMR(R15, OffBlockSnap, R12);
    A.movMI32(R15, OffBlockFirst, First);
  }
  /// Unprofiled segment entry: registers the open segment's cold path and
  /// emits its horizon check; the resumption point follows.
  void segCheck() {
    if (Profiled)
      return;
    Segs.push_back({SegFirst, SegLast, newLabel(), newLabel()});
    emitHorizonCheck(Segs.back());
    label(Segs.back().Resume);
  }
  /// r12 += L; leave for the cold path when the sum passes the horizon.
  /// Runs before the residency loads, so the cold path's C call clobbers
  /// nothing live.
  void emitHorizonCheck(const ColdSeg &S) {
    A.aluRI(0, R12, static_cast<int32_t>(S.Last - S.First + 1)); // add
    A.aluRM(0x3B, R12, R15, OffHorizon);                           // cmp
    jccTo(0x7, S.Cold);                                            // ja
  }
  /// Exit of a fault site at instruction CurI to StubFaultP. In fast code
  /// (unprofiled, outside a copy) it first writes the segment cells the
  /// flush reads and moves r12 back from the segment's end to the faulting
  /// step; per-step code has both current already.
  void emitFaultExit() {
    if (!Profiled && !InCopy && CurI <= SegLast) {
      A.leaRM(RAX, R12, -static_cast<int32_t>(SegLast - SegFirst + 1));
      A.movMR(R15, OffBlockSnap, RAX); // the segment's base Total
      A.movMI32(R15, OffBlockFirst, SegFirst);
      if (SegLast != CurI)
        A.aluRI(5, R12, static_cast<int32_t>(SegLast - CurI)); // sub
    }
    jmpTo(stub(StubFaultP));
  }
  /// Takes emitFaultExit on condition \p CC.
  void faultJcc(uint8_t CC) {
    if (Profiled || InCopy) {
      jccTo(CC, stub(StubFaultP));
      return;
    }
    size_t Skip = jccFwd(CC ^ 1); // x86 condition codes pair by the low bit
    emitFaultExit();
    bindFwd(Skip);
  }
  /// Static count table for the closed segment [SegFirst, LastIncl],
  /// added to ByOpcode / the load-store accumulators in one burst.
  /// Clobbers flags; terminators emit it before their compare.
  void segFlush(uint32_t LastIncl);

  void emitStepPrologue(const DecodedInst &DI, uint32_t I);
  void emitFcFlush(uint8_t Scratch);
  void emitPostCall(Reg Result, uint32_t I);
  /// Cold-path shim call for a pointer/scalar memory access; the simulated
  /// address must be in RSI already and residency written back.
  void emitMemShimCall(const DecodedInst &DI, bool IsStore);
  /// Branch target for \p T: the residency-preserving loop thunk when \p T
  /// is this very block's head (single-block loop back edge), else the
  /// instruction label (which runs the block-entry sequence).
  uint32_t brTarget(uint32_t T) {
    if (Cur && T == CurStart && Cur->NumSlots) {
      ThunkNeeded[CurBlock] = 1;
      return thunkLabel(CurBlock);
    }
    return T;
  }

  /// Emits decoded instruction \p I (possibly fusing with I+1); returns the
  /// number of instruction slots consumed, 0 to decline the function.
  uint32_t emitInst(uint32_t I);
  uint32_t emitFused(uint32_t I); ///< 0 = no fusion applies
  void emitAccess(const DecodedInst &DI, uint8_t AddrReg, bool IsStore);

  const DecodedFunction &DF;
  const uint64_t GlobalSize;
  const bool Profiled;
  const RegAllocResult &RA;
  Asm &A;

  uint32_t N = 0, NB = 0;
  std::vector<size_t> LabelOff;
  std::vector<Fixup> Fixups;
  std::vector<uint8_t> IsBlockStart;
  std::vector<uint8_t> ThunkNeeded;
  // Scratch for segFlush's per-opcode table.
  std::vector<uint32_t> OpCount;
  std::vector<uint16_t> OpTouched;
  /// Unprofiled segments in emission order, and each block's entry segment
  /// (for the loop thunks).
  std::vector<ColdSeg> Segs;
  std::vector<uint32_t> BlockSeg;

  const BlockRegMap *Cur = nullptr;
  uint32_t CurBlock = 0, CurStart = 0, SegFirst = 0, SegLast = 0, CurI = 0;
  /// Emitting a segment's cold per-step copy: per-step prologues, no
  /// fusion, no residency.
  bool InCopy = false;
  size_t NFused = 0;
};

void FunctionEmitter::emitStepPrologue(const DecodedInst &DI, uint32_t I) {
  // Unprofiled fast code paid for its steps at segment entry.
  if (!Profiled && !InCopy)
    return;
  // inc r12; cmp r12, [r15+MaxSteps]; ja StubStep
  A.b(0x49); A.b(0xFF); A.b(0xC4);
  A.aluRM(0x3B, R12, R15, OffMaxSteps);
  jccTo(0x7, stub(StubStep)); // ja
  // A cold copy always ends in the step-limit fault, and its segment's
  // deadline poll already ran on the way in.
  if (!Profiled)
    return;
  // Every 64K steps: test r12w, r12w; jnz +5; call StubDeadline
  A.b(0x66); A.b(0x45); A.b(0x85); A.b(0xE4);
  A.b(0x75); A.b(0x05);
  callTo(stub(StubDeadline));
  // No per-step ByOpcode/tally RMW here — see the deferred-counter scheme
  // in the file header. The profile shim still runs per memory step (the
  // sink's per-step attribution cannot be deferred); profiling disables
  // residency, so the clobbered pool is empty.
  if (DI.Flags & DIFlagMem) {
    if (DI.Flags & DIFlagPtrProf)
      A.movRM(RCX, RBX, regOff(DI.A));
    else {
      A.b(0x31); A.b(0xC9); // xor ecx, ecx
    }
    A.movRR(RDI, R15);
    A.movRI32(RSI, DF.ProfSlots[I]);
    A.movRI32(RDX, DI.Flags);
    A.callM(R15, offsetof(JitRT, HelpProfile));
  }
}

void FunctionEmitter::segFlush(uint32_t LastIncl) {
  uint32_t Loads = 0, Stores = 0;
  for (uint32_t I = SegFirst; I <= LastIncl; ++I) {
    const DecodedInst &DI = DF.Insts[I];
    const uint16_t Op = static_cast<uint16_t>(DI.Op);
    if (OpCount[Op]++ == 0)
      OpTouched.push_back(Op);
    if (DI.Flags & DIFlagLoad)
      ++Loads;
    else if (DI.Flags & DIFlagStore)
      ++Stores;
  }
  A.ensure(OpTouched.size() * 12 + 64);
  for (uint16_t Op : OpTouched) {
    const int32_t Off = static_cast<int32_t>(Op) * 8;
    if (OpCount[Op] == 1)
      A.incM(R14, Off);
    else
      A.addMI(R14, Off, static_cast<int32_t>(OpCount[Op]));
    OpCount[Op] = 0;
  }
  OpTouched.clear();
  if (Loads) {
    if (Loads == 1) {
      A.incM(R15, OffLoadsAcc);
      A.incM(RBP, 8);
    } else {
      A.addMI(R15, OffLoadsAcc, static_cast<int32_t>(Loads));
      A.addMI(RBP, 8, static_cast<int32_t>(Loads));
    }
  }
  if (Stores) {
    if (Stores == 1) {
      A.incM(R15, OffStoresAcc);
      A.incM(RBP, 16);
    } else {
      A.addMI(R15, OffStoresAcc, static_cast<int32_t>(Stores));
      A.addMI(RBP, 16, static_cast<int32_t>(Stores));
    }
  }
}

/// PerFunc[fid].Total += r12 - [rsp+16] through \p Scratch, without
/// re-snapshotting the base (call sites either re-snapshot after reloading
/// r12 or are about to return).
void FunctionEmitter::emitFcFlush(uint8_t Scratch) {
  A.movRR(Scratch, R12);
  A.aluRM(0x2B, Scratch, RSP, 16); // sub scratch, [rsp+16]
  // add [rbp], scratch
  A.rex(true, Scratch, RBP); A.b(0x01); A.mem(Scratch, RBP, 0);
}

/// After a call shim returns: reload Total, rebase the register-file and
/// host-frame pointers (the callee may have grown either arena), open the
/// post-call counting segment, restore CurFn (the callee overwrote it),
/// check the fault mirror, store the result to the register file, check the
/// segment's horizon, re-establish residency.
void FunctionEmitter::emitPostCall(Reg Result, uint32_t I) {
  A.movRM(R12, R15, OffTotal);
  A.movMR(RSP, 16, R12); // restart the FC.Total delta
  A.movRM(RBX, R15, OffRegArena);
  A.movRM(RCX, RSP, 0); // RegBase
  A.b(0x48); A.b(0x8D); A.b(0x1C); A.b(0xCB); // lea rbx, [rbx+rcx*8]
  A.movRM(R13, R15, OffStackData);
  A.aluRM(0x03, R13, RSP, 8); // add r13, [rsp+8] (FrameOff)
  A.movMI32(R15, OffCurFn, DF.Id);
  // A fault raised in the callee unwinds with nothing to settle here: the
  // call step was statically flushed before the shim, and the resumption
  // segment has not counted anything yet.
  // cmp qword [r15+FaultCell], 0 ; jnz StubFault
  A.b(0x49); A.b(0x83); A.mem(7, R15, OffFault); A.b(0x00);
  jccTo(0x5, stub(StubFault));
  // Into memory, not a pool slot: the horizon check's cold path may call
  // out, and its per-step copy reads every operand from the register file.
  if (Result != NoReg)
    A.movMR(RBX, regOff(Result), RAX);
  segOpen(I + 1);
  segCheck();
  reloadAll();
}

/// Tail of a memory-shim call: residency must already be written back and
/// the simulated address in RSI. Emits the call, the fault test (loads
/// return the fault flag in rdx, stores in rax), the residency reload, and
/// the loaded value's store.
void FunctionEmitter::emitMemShimCall(const DecodedInst &DI, bool IsStore) {
  if (IsStore) {
    loadGP(RDX, DI.B);
    A.movRI32(RCX, static_cast<uint32_t>(DI.MemTy));
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpStore));
    A.testRR(RAX, RAX);
    faultJcc(0x5); // jnz
    reloadAll();
  } else {
    A.movRI32(RDX, static_cast<uint32_t>(DI.MemTy));
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpLoad));
    A.testRR(RDX, RDX);
    faultJcc(0x5);
    reloadAll();
    storeFromGP(DI.Result, RAX);
  }
}

/// Host access at [rcx] for an in-bounds fast path: RCX holds the host
/// address. Loads land in RAX and define Result; stores read the IL value
/// operand into RDX.
void FunctionEmitter::emitAccess(const DecodedInst &DI, uint8_t AddrReg,
                                 bool IsStore) {
  if (IsStore) {
    loadGP(RDX, DI.B);
    if (DI.MemTy == MemType::I8) {
      A.b(0x88); A.mem(RDX, AddrReg, 0); // mov [rcx], dl
    } else {
      A.movMR(AddrReg, 0, RDX);
    }
  } else {
    if (DI.MemTy == MemType::I8) {
      A.b(0x48); A.b(0x0F); A.b(0xB6); A.mem(RAX, AddrReg, 0); // movzx
    } else {
      A.movRM(RAX, AddrReg, 0);
    }
    storeFromGP(DI.Result, RAX);
  }
}

/// Superinstruction recognition over the decoded stream at emit time, for
/// the adjacent pairs where a native template wins (flag reuse, immediate
/// folding, product residency); this is rpcc's only fusion. A pair counts
/// as two steps of its segment. Profiled code runs both steps' prologues
/// first, then the pair; unprofiled code never stops between the halves,
/// because a step limit inside the segment runs the per-step copy, which
/// does not fuse. The only divergence from the fast path is post-fault
/// register contents, which nothing can observe.
uint32_t FunctionEmitter::emitFused(uint32_t I) {
  if (InCopy || I + 1 >= N || IsBlockStart[I + 1])
    return 0;
  const DecodedInst &DI = DF.Insts[I];
  const DecodedInst &NX = DF.Insts[I + 1];

  // --- compare + branch: reuse the compare's flags for the jcc ------------
  const bool IsIntCmp =
      DI.D >= DecodedOp::CmpEq && DI.D <= DecodedOp::CmpGe;
  const bool IsFpCmp =
      DI.D >= DecodedOp::FCmpEq && DI.D <= DecodedOp::FCmpGe;
  if ((IsIntCmp || IsFpCmp) && NX.D == DecodedOp::Br &&
      NX.A == DI.Result && DI.Result != NoReg) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    segFlush(I + 1); // clobbers flags; everything below preserves them
    uint8_t CC;
    if (IsIntCmp) {
      static const uint8_t IntCC[] = {0x4, 0x5, 0xC, 0xE, 0xF, 0xD};
      CC = IntCC[static_cast<int>(DI.D) - static_cast<int>(DecodedOp::CmpEq)];
      loadGP(RAX, DI.A);
      aluWithReg(0x3B, RAX, DI.B);
      A.setcc(CC, RCX);
      A.movzxEcxCl();
      storeFromGP(DI.Result, RCX); // the bool may have other readers
      writeback();
    } else if (DI.D == DecodedOp::FCmpEq || DI.D == DecodedOp::FCmpNe) {
      ucomisdRegs(DI.A, DI.B);
      if (DI.D == DecodedOp::FCmpEq) {
        A.setcc(0xB, RAX); // setnp al (ordered)
        A.setcc(0x4, RCX); // sete cl
        A.b(0x20); A.b(0xC8); // and al, cl — ZF = !bool
      } else {
        A.setcc(0xA, RAX); // setp al (NaN -> true)
        A.setcc(0x5, RCX); // setne cl
        A.b(0x08); A.b(0xC8); // or al, cl — ZF = !bool
      }
      A.movzxEaxAl();
      storeFromGP(DI.Result, RAX);
      writeback();
      CC = 0x5; // jnz: taken when the combined bool is nonzero
    } else {
      // Ordered-greater predicates are false on NaN because unordered sets
      // CF; Lt/Le compare with the operands swapped (same trick as the
      // unfused templates), and the jcc reuses the identical condition.
      const bool Swap = DI.D == DecodedOp::FCmpLt || DI.D == DecodedOp::FCmpLe;
      CC = (DI.D == DecodedOp::FCmpLt || DI.D == DecodedOp::FCmpGt) ? 0x7
                                                                    : 0x3;
      ucomisdRegs(Swap ? DI.B : DI.A, Swap ? DI.A : DI.B);
      A.setcc(CC, RCX);
      A.movzxEcxCl();
      storeFromGP(DI.Result, RCX);
      writeback();
    }
    jccTo(CC, brTarget(NX.T0));
    if (NX.T1 != I + 2)
      jmpTo(brTarget(NX.T1));
    ++NFused;
    return 2;
  }

  // --- LoadI + consumer: fold the constant into the ALU immediate ---------
  if (DI.D == DecodedOp::LoadI && DI.Imm >= INT32_MIN && DI.Imm <= INT32_MAX &&
      NX.B == DI.Result && NX.A != DI.Result && NX.Result != NoReg) {
    uint8_t AluExt = 0xFF, CmpCC = 0xFF;
    bool IsMul = false;
    switch (NX.D) {
    case DecodedOp::Add: AluExt = 0; break;
    case DecodedOp::Sub: AluExt = 5; break;
    case DecodedOp::Mul: IsMul = true; break;
    case DecodedOp::CmpEq: CmpCC = 0x4; break;
    case DecodedOp::CmpNe: CmpCC = 0x5; break;
    case DecodedOp::CmpLt: CmpCC = 0xC; break;
    default: return 0;
    }
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    const int32_t Imm = static_cast<int32_t>(DI.Imm);
    {
      // The constant's register is still defined (it may have readers
      // beyond the fused consumer), exactly as when the pair runs unfused.
      int S = slotOf(DI.Result);
      if (S >= 0) {
        A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
      } else {
        A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
        A.movMR(RBX, regOff(DI.Result), RAX);
      }
    }
    loadGP(RAX, NX.A);
    if (IsMul)
      A.imulRRI(RAX, RAX, Imm);
    else if (CmpCC != 0xFF)
      A.aluRI(7, RAX, Imm);
    else
      A.aluRI(AluExt, RAX, Imm);
    if (CmpCC != 0xFF) {
      A.setcc(CmpCC, RAX);
      A.movzxEaxAl();
    }
    storeFromGP(NX.Result, RAX);
    ++NFused;
    return 2;
  }

  // --- LoadI/Copy + Jmp: block-closing move folded into the jump ----------
  if ((DI.D == DecodedOp::LoadI || DI.D == DecodedOp::Copy) &&
      NX.D == DecodedOp::Jmp) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    if (DI.D == DecodedOp::LoadI) {
      int S = slotOf(DI.Result);
      if (S >= 0) {
        A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
      } else {
        A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
        A.movMR(RBX, regOff(DI.Result), RAX);
      }
    } else {
      loadGP(RAX, DI.A);
      storeFromGP(DI.Result, RAX);
    }
    segFlush(I + 1);
    writeback();
    if (NX.T0 != I + 2)
      jmpTo(brTarget(NX.T0));
    ++NFused;
    return 2;
  }

  // --- FMul + FAdd/FSub: keep the product resident in xmm0 ----------------
  if (DI.D == DecodedOp::FMul &&
      (NX.D == DecodedOp::FAdd || NX.D == DecodedOp::FSub) &&
      DI.Result != NoReg && (NX.A == DI.Result || NX.B == DI.Result)) {
    emitStepPrologue(DI, I);
    emitStepPrologue(NX, I + 1);
    loadX0(DI.A);
    sseWithReg(0x59, DI.B); // mulsd: product in xmm0
    storeX0(DI.Result);     // the product register may have other readers
    const uint8_t Opc = NX.D == DecodedOp::FAdd ? 0x58 : 0x5C;
    if (NX.A == DI.Result) {
      // product OP other — xmm0 already holds the left operand. When the
      // right operand aliases the product register, its location was just
      // refreshed by storeX0, so reading back through it is order-exact.
      sseWithReg(Opc, NX.B);
    } else {
      // other OP product — FP NaN payloads make even FAdd order-sensitive,
      // so the product moves over and the left operand loads fresh.
      A.sseRR(0xF2, 0x10, 1, 0); // movsd xmm1, xmm0
      loadX0(NX.A);
      A.sseRR(0xF2, Opc, 0, 1);
    }
    storeX0(NX.Result);
    ++NFused;
    return 2;
  }

  return 0;
}

uint32_t FunctionEmitter::emitInst(uint32_t I) {
  A.ensure(640);
  if (uint32_t Consumed = emitFused(I))
    return Consumed;

  const DecodedInst &DI = DF.Insts[I];
  CurI = I;
  emitStepPrologue(DI, I);

  auto intBin = [&](uint8_t Opc) {
    loadGP(RAX, DI.A);
    aluWithReg(Opc, RAX, DI.B);
    storeFromGP(DI.Result, RAX);
  };
  auto intCmp = [&](uint8_t CC) {
    loadGP(RAX, DI.A);
    aluWithReg(0x3B, RAX, DI.B);
    A.setcc(CC, RAX);
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
  };
  auto fpBin = [&](uint8_t Opc) {
    loadX0(DI.A);
    sseWithReg(Opc, DI.B);
    storeX0(DI.Result);
  };
  // ucomisd first, second; then setcc. Ordered-greater predicates
  // (seta/setae) are false on NaN because unordered sets CF, which is why
  // Lt/Le compare with the operands swapped.
  auto fpCmpGtGe = [&](Reg First, Reg Second, uint8_t CC) {
    ucomisdRegs(First, Second);
    A.setcc(CC, RAX);
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
  };
  // Div/Rem run native idiv on the common path; only the cases idiv cannot
  // express go to the shim — divisor 0 (always a fault) and, for Div,
  // divisor -1 (where INT64_MIN/-1 both overflows the result and traps the
  // instruction; the shim re-screens with divFaults and faults or divides).
  // Rem handles -1 inline: srem defines INT64_MIN % -1 == 0, and x % -1 is
  // 0 for every x, so the quotient never executes. idiv therefore never
  // traps. Arith.h sdiv/srem are C++ '/'/'%' — truncating, exactly idiv.
  auto divRem = [&](bool IsRem) {
    loadGP(RAX, DI.A);
    loadGP(RCX, DI.B);
    A.testRR(RCX, RCX);
    size_t ToSlow0 = jccFwd(0x4); // jz: divisor 0
    A.aluRI(7, RCX, -1);          // cmp rcx, -1
    size_t ToNeg1 = jccFwd(0x4);  // je
    A.b(0x48); A.b(0x99);         // cqo
    A.b(0x48); A.b(0xF7); A.b(0xF9); // idiv rcx
    if (IsRem)
      A.movRR(RAX, RDX);
    size_t ToDone0 = jmpFwd();
    bindFwd(ToNeg1);
    size_t ToDone1 = 0, ToSlow1 = 0;
    if (IsRem) {
      A.b(0x31); A.b(0xC0); // xor eax, eax: x % -1 == 0, INT64_MIN included
      ToDone1 = jmpFwd();
    } else {
      ToSlow1 = jmpFwd(); // Div by -1: shim screens the INT64_MIN overflow
    }
    bindFwd(ToSlow0);
    if (!IsRem)
      bindFwd(ToSlow1);
    writeback(); // movs only; the jcc flags above are already consumed
    A.movRR(RDX, RCX); // divisor already in rcx (B's slot may be any reg)
    A.movRR(RSI, RAX);
    A.movRR(RDI, R15);
    A.callM(R15, static_cast<int32_t>(IsRem ? offsetof(JitRT, HelpRem)
                                            : offsetof(JitRT, HelpDiv)));
    A.testRR(RDX, RDX);
    faultJcc(0x5); // jnz: prologue-complete fault
    reloadAll();
    bindFwd(ToDone0);
    if (IsRem)
      bindFwd(ToDone1);
    storeFromGP(DI.Result, RAX);
  };
  // Most templates fall through to the next instruction; terminators and
  // fused jumps end the counting segment themselves. A non-terminator
  // cannot legally end a block (decode always closes blocks with a
  // terminator), so hitting one declines rather than miscounting.
  auto endsSegment = [&]() -> bool {
    return I + 1 == N || IsBlockStart[I + 1];
  };

  switch (DI.D) {
  case DecodedOp::Add: intBin(0x03); break;
  case DecodedOp::Sub: intBin(0x2B); break;
  case DecodedOp::Mul:
    loadGP(RAX, DI.A);
    imulWithReg(RAX, DI.B);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::Div: divRem(false); break;
  case DecodedOp::Rem: divRem(true); break;
  case DecodedOp::And: intBin(0x23); break;
  case DecodedOp::Or: intBin(0x0B); break;
  case DecodedOp::Xor: intBin(0x33); break;
  case DecodedOp::Shl:
  case DecodedOp::Shr:
    // Native 64-bit shifts mask the count to 6 bits, exactly the Arith.h
    // contract (shiftLeft/shiftRightArith).
    loadGP(RCX, DI.B);
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0xD3);
    A.b(DI.D == DecodedOp::Shl ? 0xE0 : 0xF8); // shl rax,cl / sar rax,cl
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::CmpEq: intCmp(0x4); break;
  case DecodedOp::CmpNe: intCmp(0x5); break;
  case DecodedOp::CmpLt: intCmp(0xC); break;
  case DecodedOp::CmpLe: intCmp(0xE); break;
  case DecodedOp::CmpGt: intCmp(0xF); break;
  case DecodedOp::CmpGe: intCmp(0xD); break;
  case DecodedOp::FAdd: fpBin(0x58); break;
  case DecodedOp::FSub: fpBin(0x5C); break;
  case DecodedOp::FMul: fpBin(0x59); break;
  case DecodedOp::FDiv: fpBin(0x5E); break;
  case DecodedOp::FCmpEq:
    // Equal iff ordered (PF=0) and ZF=1.
    ucomisdRegs(DI.A, DI.B);
    A.setcc(0xB, RAX); // setnp al
    A.setcc(0x4, RCX); // sete cl
    A.b(0x20); A.b(0xC8); // and al, cl
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FCmpNe:
    // Not-equal is true on NaN: unordered (PF=1) or ZF=0.
    ucomisdRegs(DI.A, DI.B);
    A.setcc(0xA, RAX); // setp al
    A.setcc(0x5, RCX); // setne cl
    A.b(0x08); A.b(0xC8); // or al, cl
    A.movzxEaxAl();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FCmpLt: fpCmpGtGe(DI.B, DI.A, 0x7); break; // b > a
  case DecodedOp::FCmpLe: fpCmpGtGe(DI.B, DI.A, 0x3); break; // b >= a
  case DecodedOp::FCmpGt: fpCmpGtGe(DI.A, DI.B, 0x7); break;
  case DecodedOp::FCmpGe: fpCmpGtGe(DI.A, DI.B, 0x3); break;
  case DecodedOp::Neg:
  case DecodedOp::Not:
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0xF7);
    A.b(DI.D == DecodedOp::Neg ? 0xD8 : 0xD0); // neg rax / not rax
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::FNeg:
    // Sign-bit flip, bit-exact with the interpreters' -double.
    loadGP(RAX, DI.A);
    A.b(0x48); A.b(0x0F); A.b(0xBA); A.b(0xF8); A.b(0x3F); // btc rax, 63
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::IntToFp:
    loadGP(RAX, DI.A);
    A.b(0xF2); A.b(0x48); A.b(0x0F); A.b(0x2A); A.b(0xC0); // cvtsi2sd xmm0,rax
    storeX0(DI.Result);
    break;
  case DecodedOp::FpToInt:
    // cvttsd2si does NOT match fpToIntSat (NaN -> INT64_MIN on x86); the
    // saturating helper is the one semantics everything folds with. It is
    // a plain C call: cannot fault, does clobber the residency pool.
    loadX0(DI.A);
    writeback();
    A.callM(R15, offsetof(JitRT, HelpFpToInt));
    reloadAll();
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::LoadI:
  case DecodedOp::LoadF:
  case DecodedOp::LoadAddrAbs: {
    int S = slotOf(DI.Result);
    if (S >= 0) {
      A.movRI(PoolReg[S], static_cast<uint64_t>(DI.Imm));
    } else {
      A.movRI(RAX, static_cast<uint64_t>(DI.Imm));
      A.movMR(RBX, regOff(DI.Result), RAX);
    }
    break;
  }
  case DecodedOp::LoadAddrFrame:
    // Simulated address: InterpStackBase + FrameOff + baked offset.
    A.movRI(RAX, InterpStackBase + static_cast<uint64_t>(DI.Imm));
    A.aluRM(0x03, RAX, RSP, 8);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::Copy:
    loadGP(RAX, DI.A);
    storeFromGP(DI.Result, RAX);
    break;
  case DecodedOp::ScalarLoadAbs:
  case DecodedOp::ScalarStoreAbs: {
    const bool IsStore = DI.D == DecodedOp::ScalarStoreAbs;
    const uint32_t Len = memTypeSize(DI.MemTy);
    const uint64_t U = static_cast<uint64_t>(DI.Imm);
    const bool InImage = U >= InterpGlobalBase &&
                         U - InterpGlobalBase + Len <= GlobalSize &&
                         U - InterpGlobalBase <= uint64_t(INT32_MAX) - 8;
    if (InImage) {
      // Baked global address: in bounds by layout construction, so the
      // access is a direct host load/store off the (relocatable) image
      // base cell.
      const int32_t Off = static_cast<int32_t>(U - InterpGlobalBase);
      A.movRM(RCX, R15, OffGlobalData);
      if (IsStore) {
        loadGP(RDX, DI.A);
        if (DI.MemTy == MemType::I8) {
          A.b(0x88); A.mem(RDX, RCX, Off); // mov [rcx+off], dl
        } else {
          A.movMR(RCX, Off, RDX);
        }
      } else {
        if (DI.MemTy == MemType::I8) {
          A.b(0x48); A.b(0x0F); A.b(0xB6); A.mem(RAX, RCX, Off); // movzx
        } else {
          A.movRM(RAX, RCX, Off);
        }
        storeFromGP(DI.Result, RAX);
      }
      break;
    }
    // Not a global-image address (cannot happen today): keep the exact
    // interpreter semantics by going through the shim.
    writeback();
    A.movRI(RSI, U);
    if (IsStore) {
      // The shim takes the value in RDX like the pointer form; reuse the
      // common tail (it reloads residency and tests the fault flag).
      loadGP(RDX, DI.A);
      A.movRI32(RCX, static_cast<uint32_t>(DI.MemTy));
      A.movRR(RDI, R15);
      A.callM(R15, offsetof(JitRT, HelpStore));
      A.testRR(RAX, RAX);
      faultJcc(0x5);
      reloadAll();
    } else {
      A.movRI32(RDX, static_cast<uint32_t>(DI.MemTy));
      A.movRR(RDI, R15);
      A.callM(R15, offsetof(JitRT, HelpLoad));
      A.testRR(RDX, RDX);
      faultJcc(0x5);
      reloadAll();
      storeFromGP(DI.Result, RAX);
    }
    break;
  }
  case DecodedOp::ScalarLoadFrame:
  case DecodedOp::ScalarStoreFrame: {
    // Frame offsets are in bounds by FrameLayout construction (the frame
    // was sized to cover them at entry), so these are direct host accesses
    // through the r13 frame pointer.
    const bool IsStore = DI.D == DecodedOp::ScalarStoreFrame;
    const uint32_t Len = memTypeSize(DI.MemTy);
    if (DI.Imm < 0 || static_cast<uint64_t>(DI.Imm) + Len > DF.FrameSize)
      return 0; // malformed layout; let the fast path interpret it
    const int32_t Off = static_cast<int32_t>(DI.Imm);
    if (IsStore) {
      loadGP(RAX, DI.A);
      if (DI.MemTy == MemType::I8) {
        A.b(0x41); A.b(0x88); A.mem(RAX, R13, Off); // mov [r13+off], al
      } else {
        A.movMR(R13, Off, RAX);
      }
    } else {
      if (DI.MemTy == MemType::I8) {
        A.b(0x49); A.b(0x0F); A.b(0xB6); A.mem(RAX, R13, Off); // movzx
      } else {
        A.movRM(RAX, R13, Off);
      }
      storeFromGP(DI.Result, RAX);
    }
    break;
  }
  case DecodedOp::PtrLoad:
  case DecodedOp::PtrStore: {
    // The three in-bounds segments — global image, heap, simulated stack —
    // are inlined; their checks are order-free because the in-bounds
    // regions are disjoint, so any miss (null/small addresses, function
    // addresses, out-of-bounds offsets) falls through to the shim, which
    // reproduces every interpreter fault message exactly. decodeAddr's
    // rule is Off + Len > size, i.e. in bounds iff addr - base <= size -
    // len; the heap/stack forms split it into two compares (off < size,
    // then off + len <= size) because size is a runtime cell and the
    // single-compare trick would wrap for addresses just below the base.
    const bool IsStore = DI.D == DecodedOp::PtrStore;
    const uint32_t Len = memTypeSize(DI.MemTy);
    loadGP(RAX, DI.A); // simulated address, live until the shim hand-off
    size_t ToShim[4], ToDone[3];
    unsigned NShim = 0, NDone = 0;
    const bool InlineGlobal =
        GlobalSize >= Len && GlobalSize - Len <= uint64_t(INT32_MAX);
    if (InlineGlobal) {
      A.leaRM(RCX, RAX, -static_cast<int32_t>(InterpGlobalBase));
      A.aluRI(7, RCX, static_cast<int32_t>(GlobalSize - Len)); // cmp
      size_t ToHeap = jccFwd(0x7); // ja: not an in-bounds global access
      A.aluRM(0x03, RCX, R15, OffGlobalData);
      emitAccess(DI, RCX, IsStore);
      ToDone[NDone++] = jmpFwd();
      bindFwd(ToHeap);
    }
    // Heap segment.
    A.movRI(RDX, InterpHeapBase);
    A.movRR(RCX, RAX);
    A.aluRR(0x2B, RCX, RDX);
    A.aluRM(0x3B, RCX, R15, OffHeapSize);
    size_t ToStack = jccFwd(0x3); // jae: not an in-bounds heap offset
    A.leaRM(RDX, RCX, static_cast<int32_t>(Len));
    A.aluRM(0x3B, RDX, R15, OffHeapSize);
    ToShim[NShim++] = jccFwd(0x7); // ja: tail crosses the break
    A.aluRM(0x03, RCX, R15, OffHeapData);
    emitAccess(DI, RCX, IsStore);
    ToDone[NDone++] = jmpFwd();
    bindFwd(ToStack);
    // Simulated stack segment.
    A.movRI(RDX, InterpStackBase);
    A.movRR(RCX, RAX);
    A.aluRR(0x2B, RCX, RDX);
    A.aluRM(0x3B, RCX, R15, OffStackSize);
    ToShim[NShim++] = jccFwd(0x3); // jae
    A.leaRM(RDX, RCX, static_cast<int32_t>(Len));
    A.aluRM(0x3B, RDX, R15, OffStackSize);
    ToShim[NShim++] = jccFwd(0x7); // ja
    A.aluRM(0x03, RCX, R15, OffStackData);
    emitAccess(DI, RCX, IsStore);
    size_t Over = jmpFwd();
    // Cold path: the full decodeAddr through the shim.
    for (unsigned K = 0; K != NShim; ++K)
      bindFwd(ToShim[K]);
    writeback(); // movs only: RAX (the address) survives
    A.movRR(RSI, RAX);
    emitMemShimCall(DI, IsStore);
    A.patch32(Over, static_cast<uint32_t>(A.pos() - (Over + 4)));
    for (unsigned K = 0; K != NDone; ++K)
      bindFwd(ToDone[K]);
    break;
  }
  case DecodedOp::Call:
    segFlush(I); // the call step itself counts before the callee runs
    A.movMR(R15, OffTotal, R12);
    emitFcFlush(RAX);
    writeback();
    A.movRI32(RSI, DI.T0); // callee FuncId
    A.movRI32(RDX, DI.T1); // ArgPool offset, resolved via CurFn by the shim
    A.movRI32(RCX, DI.A);  // arg count
    A.movRR(R8, RBX);
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpCall));
    emitPostCall(DI.Result, I);
    break;
  case DecodedOp::CallIndirect:
    segFlush(I);
    A.movMR(R15, OffTotal, R12);
    emitFcFlush(RAX);
    writeback();
    loadGP(RSI, DI.A);     // target value, validated by the shim
    A.movRI32(RDX, DI.T0); // ArgPool offset
    A.movRI32(RCX, DI.T1); // arg count
    A.movRR(R8, RBX);
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpCallInd));
    emitPostCall(DI.Result, I);
    break;
  case DecodedOp::Br:
    segFlush(I); // before the test: the flush's adds clobber flags
    loadGP(RAX, DI.A);
    A.testRR(RAX, RAX);
    writeback(); // movs only, flags survive to the jcc
    jccTo(0x5, brTarget(DI.T0)); // jnz taken
    if (DI.T1 != I + 1)
      jmpTo(brTarget(DI.T1));
    return 1;
  case DecodedOp::Jmp:
    segFlush(I);
    writeback();
    if (DI.T0 != I + 1)
      jmpTo(brTarget(DI.T0));
    return 1;
  case DecodedOp::RetVal:
    segFlush(I);
    loadGP(RAX, DI.A); // no writeback: the frame's register file dies here
    jmpTo(stub(StubEpi));
    return 1;
  case DecodedOp::RetVoid:
    segFlush(I);
    A.b(0x31); A.b(0xC0); // xor eax, eax
    jmpTo(stub(StubEpi));
    return 1;
  case DecodedOp::Fault:
    // Decode-time diagnosed IL; counted prologue-complete like both
    // interpreters, so the flush stub (not a static table) settles the
    // segment including this step.
    A.movRR(RDI, R15);
    A.movRI32(RSI, static_cast<uint32_t>(DI.Imm)); // FaultMsgs index
    A.callM(R15, offsetof(JitRT, HelpFault));
    emitFaultExit();
    return 1;
  }
  // Fall-through template: the segment must continue into I + 1.
  if (endsSegment())
    return 0;
  return 1;
}

bool FunctionEmitter::emit() {
  N = static_cast<uint32_t>(DF.Insts.size());
  NB = static_cast<uint32_t>(DF.BlockStarts.size());
  if (N == 0 || NB == 0 || DF.BlockStarts[0] != 0 ||
      RA.Blocks.size() != NB)
    return false;
  LabelOff.assign(N + 2 * NB + NumStubs, 0);
  IsBlockStart.assign(N, 0);
  for (uint32_t S : DF.BlockStarts) {
    if (S >= N)
      return false;
    IsBlockStart[S] = 1;
  }
  ThunkNeeded.assign(NB, 0);
  BlockSeg.assign(NB, 0);
  Segs.clear();
  OpCount.assign(static_cast<size_t>(NumOpcodes), 0);
  OpTouched.clear();
  Fixups.clear();
  A.ensure(512);

  // Prologue: save callee-saved state, pin the convention registers. All
  // module-level bases come from JitRT cells so the code stays relocatable
  // across Machines (code-cache sharing).
  A.b(0x53);             // push rbx
  A.b(0x55);             // push rbp
  A.b(0x41); A.b(0x54);  // push r12
  A.b(0x41); A.b(0x55);  // push r13
  A.b(0x41); A.b(0x56);  // push r14
  A.b(0x41); A.b(0x57);  // push r15
  A.b(0x48); A.b(0x83); A.b(0xEC); A.b(24); // sub rsp, 24
  A.movRR(R15, RDI);
  A.movMR(RSP, 0, RSI); // RegBase
  A.movMR(RSP, 8, RDX); // FrameOff
  A.movRM(R14, R15, OffByOpBase);
  A.movRM(RBP, R15, OffPerFnBase);
  if (DF.Id != 0)
    A.aluRI(0, RBP, static_cast<int32_t>(DF.Id * sizeof(FunctionCounters)));
  A.movMI32(R15, OffCurFn, DF.Id);
  A.movRM(RBX, R15, OffRegArena);
  A.b(0x48); A.b(0x8D); A.b(0x1C); A.b(0xF3); // lea rbx, [rbx+rsi*8]
  A.movRM(R13, R15, OffStackData);
  A.b(0x49); A.b(0x01); A.b(0xD5); // add r13, rdx
  A.movRM(R12, R15, OffTotal);
  A.movMR(RSP, 16, R12); // FC.Total delta base (see emitFcFlush)

  uint32_t NextBlock = 0;
  for (uint32_t I = 0; I != N;) {
    A.ensure(128);
    label(I);
    if (NextBlock != NB && DF.BlockStarts[NextBlock] == I) {
      CurBlock = NextBlock++;
      Cur = &RA.Blocks[CurBlock];
      CurStart = I;
      segOpen(I);
      BlockSeg[CurBlock] = static_cast<uint32_t>(Segs.size());
      segCheck();
      reloadAll(); // block-entry residency loads
      label(bodyLabel(CurBlock));
    } else if (IsBlockStart[I]) {
      return false; // blocks out of ascending order: malformed stream
    }
    uint32_t Consumed = emitInst(I);
    if (Consumed == 0)
      return false;
    if (Consumed == 2)
      label(I + 1); // dead slot of a fused pair; nothing targets it
    I += Consumed;
  }

  // Single-block loop back edges land here: re-open the counting segment
  // but skip the block-entry loads — residency survives the iteration (the
  // terminator's writeback keeps memory coherent at the edge, which is also
  // why the cold path may resume at the block's loads). Only unprofiled
  // code has residency, so every thunk has a horizon check.
  for (uint32_t B = 0; B != NB; ++B) {
    if (!ThunkNeeded[B])
      continue;
    A.ensure(32);
    label(thunkLabel(B));
    emitHorizonCheck(Segs[BlockSeg[B]]);
    jmpTo(bodyLabel(B));
  }

  // Segment cold paths, out of line after the hot body. r12 holds the
  // segment's end total and none of its steps has run. The shim returns 0
  // (resume the fast code), 1 (deadline fault: unwind at the segment's
  // base with nothing to settle) or 2 (MaxSteps falls inside: run the
  // per-step copy from the base). The copy covers every step but the
  // closing one; reaching that step's prologue means it overflows, so no
  // closing template is needed.
  for (const ColdSeg &S : Segs) {
    const int32_t L = static_cast<int32_t>(S.Last - S.First + 1);
    A.ensure(64);
    label(S.Cold);
    A.movRR(RSI, R12);
    A.movRI32(RDX, static_cast<uint32_t>(L));
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpSegment));
    A.testRR(RAX, RAX);
    jccTo(0x4, S.Resume); // jz
    A.aluRI(5, R12, L);   // sub: back to the segment's base
    A.aluRI(7, RAX, 1);   // cmp
    jccTo(0x4, stub(StubFault)); // je: deadline
    emitSegCells(S.First);
    Cur = nullptr;
    InCopy = true;
    SegFirst = S.First;
    SegLast = S.Last;
    for (uint32_t J = S.First; J != S.Last; ++J)
      if (emitInst(J) != 1)
        return false;
    InCopy = false;
    A.ensure(16);
    A.b(0x49); A.b(0xFF); A.b(0xC4); // inc r12
    jmpTo(stub(StubStep));
  }

  A.ensure(512); // the stubs

  // Step-limit: raise through the shim, then settle the partial segment
  // excluding the overflowing step (the interpreters raise before the
  // ByOpcode bump) — which is also why the delta base is bumped to keep it
  // out of the per-function total.
  label(stub(StubStep));
  A.movRR(RDI, R15);
  A.callM(R15, offsetof(JitRT, HelpStepLimit));
  // fall through
  label(stub(StubFaultLimit));
  A.incM(RSP, 16);
  A.movRR(RSI, R12);
  A.aluRM(0x2B, RSI, R15, OffBlockSnap);
  A.decR(RSI); // exclude the faulting step from the flush walk
  A.movRR(RDI, R15);
  A.callM(R15, offsetof(JitRT, HelpFlushCounters));
  jmpTo(stub(StubFault));

  // Profiled code's per-step deadline poll, reached by call (so rsp is 8
  // past alignment here). Profiling disables residency, so the C call
  // clobbers nothing live.
  if (Profiled) {
    label(stub(StubDeadline));
    A.b(0x48); A.b(0x83); A.b(0xEC); A.b(0x08); // sub rsp, 8 (align)
    A.movRR(RDI, R15);
    A.callM(R15, offsetof(JitRT, HelpDeadline));
    A.b(0x48); A.b(0x83); A.b(0xC4); A.b(0x08); // add rsp, 8
    A.testRR(RAX, RAX);
    size_t ToDeadFault = jccFwd(0x5); // jnz
    A.b(0xC3);
    bindFwd(ToDeadFault);
    // Drop the return address, landing back at the body's stack level where
    // [rsp+16] is the delta slot again; the deadline-striking step is
    // excluded exactly like the step-limit one.
    A.b(0x48); A.b(0x83); A.b(0xC4); A.b(0x08); // add rsp, 8
    jmpTo(stub(StubFaultLimit));
  }

  // Prologue-complete faults (memory, div/rem, Fault records): the faulting
  // step is fully counted, so no decrement.
  label(stub(StubFaultP));
  A.movRR(RSI, R12);
  A.aluRM(0x2B, RSI, R15, OffBlockSnap);
  A.movRR(RDI, R15);
  A.callM(R15, offsetof(JitRT, HelpFlushCounters));
  // fall through

  // Fault exit falls through into the epilogue with a zero return value.
  label(stub(StubFault));
  A.b(0x31); A.b(0xC0); // xor eax, eax
  label(stub(StubEpi));
  A.movMR(R15, OffTotal, R12);
  emitFcFlush(RCX); // rax carries the return value
  A.b(0x48); A.b(0x83); A.b(0xC4); A.b(24); // add rsp, 24
  A.b(0x41); A.b(0x5F); // pop r15
  A.b(0x41); A.b(0x5E); // pop r14
  A.b(0x41); A.b(0x5D); // pop r13
  A.b(0x41); A.b(0x5C); // pop r12
  A.b(0x5D);            // pop rbp
  A.b(0x5B);            // pop rbx
  A.b(0xC3);

  for (const Fixup &F : Fixups) {
    int64_t Rel = static_cast<int64_t>(LabelOff[F.Label]) -
                  static_cast<int64_t>(F.Pos + 4);
    if (Rel < INT32_MIN || Rel > INT32_MAX)
      return false;
    A.patch32(F.Pos, static_cast<uint32_t>(Rel));
  }
  return true;
}

} // namespace

namespace {

/// Compile-side metrics, counted per run by JitProgram::recordRun over the
/// functions the run used, so a run that found its code cached counts the
/// same as the run that compiled it.
struct JitCompileMetrics {
  Histogram CodeBytes;
  Counter Functions, Declines, FusedPairs, ResidentRegs;
  JitCompileMetrics() {
    auto &R = MetricsRegistry::global();
    CodeBytes = R.histogram("jit.code_bytes", {}, MetricStability::Stable,
                            "bytes",
                            "Emitted machine code per function entered.");
    Functions = R.counter("jit.functions", {}, MetricStability::Stable, "ops",
                          "Functions a run entered as native code.");
    Declines = R.counter("jit.declines", {}, MetricStability::Stable, "ops",
                         "Functions a run ran on the fast-path fallback.");
    FusedPairs = R.counter("jit.fused_pairs", {}, MetricStability::Stable,
                           "ops", "Superinstruction pairs fused by the "
                                  "emitter (static, per function run).");
    ResidentRegs = R.counter(
        "jit.regalloc_resident_regs", {}, MetricStability::Stable, "ops",
        "Block-local IL registers granted host-register residency "
        "(static, per function run).");
  }
};

JitCompileMetrics &compileMetrics() {
  static JitCompileMetrics M;
  return M;
}

} // namespace

JitProgram::Entry JitProgram::compile(const DecodedFunction &DF,
                                      uint64_t &OutCompileUs) {
  OutCompileUs = 0;
  const FuncId F = DF.Id;
  if (F >= Entries.size())
    return nullptr;
  std::lock_guard<std::mutex> Lock(CompileMu);
  if (void *E = Entries[F].load(std::memory_order_acquire))
    return reinterpret_cast<Entry>(E);
  if (Declined[F].load(std::memory_order_acquire))
    return nullptr;
  if (!DF.HasBody || DF.Insts.empty()) {
    Declined[F].store(1, std::memory_order_release);
    return nullptr;
  }

  const auto T0 = std::chrono::steady_clock::now();
  auto Done = [&] {
    OutCompileUs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
  };

  // Residency is disabled under profiling: the per-step profile shim would
  // force a writeback/reload at nearly every memory step, costing more
  // than the residency saves. Profiled runs keep fusion and deferred
  // counters.
  RegAllocResult RA;
  if (Profiled)
    RA.Blocks.resize(DF.BlockStarts.size());
  else
    RA = allocateBlockRegs(DF);

  std::vector<uint8_t> Code(DF.Insts.size() * 96 + 1024);
  Asm A(Code);
  FunctionEmitter FE(DF, GlobalSize, Profiled, RA, A);
  if (!FE.emit()) {
    Declined[F].store(1, std::memory_order_release);
    Done();
    return nullptr;
  }

  const size_t Size = A.pos();
  void *Mem = ::mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    Declined[F].store(1, std::memory_order_release);
    Done();
    return nullptr;
  }
  std::memcpy(Mem, Code.data(), Size);
  if (::mprotect(Mem, Size, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(Mem, Size);
    Declined[F].store(1, std::memory_order_release);
    Done();
    return nullptr;
  }

  Chunks.push_back({static_cast<uint8_t *>(Mem), Size});
  Stats[F] = {static_cast<uint32_t>(Size),
              static_cast<uint32_t>(FE.fusedPairs()),
              static_cast<uint32_t>(RA.ResidentRegs)};
  Entries[F].store(Mem, std::memory_order_release);
  Done();
  return reinterpret_cast<Entry>(Mem);
}

void JitProgram::recordRun(const std::vector<uint8_t> &Use) const {
  JitCompileMetrics &JM = compileMetrics();
  for (size_t F = 0; F != Use.size() && F != Stats.size(); ++F) {
    if (Use[F] == RanFallback) {
      JM.Declines.inc();
    } else if (Use[F] == RanNative) {
      const FuncStats &S = Stats[F];
      JM.Functions.inc();
      JM.CodeBytes.observe(S.CodeBytes);
      if (S.FusedPairs)
        JM.FusedPairs.inc(S.FusedPairs);
      if (S.ResidentRegs)
        JM.ResidentRegs.inc(S.ResidentRegs);
    }
  }
}

#endif // RPCC_JIT_AVAILABLE
