//===- interp/FastEngine.cpp - Pre-decoded fast-path engine ---------------===//
//
// The tight dispatch loop over the decoded instruction stream. Counting
// order is the contract: it replicates the reference switch engine's step
// prologue exactly (Total incremented and checked against the step limit
// first, then ByOpcode/per-function/load/store counters, then the profile
// attribution, then the operation) so every counter, profile, output byte,
// fault message, and exit code is bit-identical across engines.
//
//===----------------------------------------------------------------------===//

#include "interp/Machine.h"

#include "support/Arith.h"

#include <cassert>

using namespace rpcc;

// Feature macro for the dispatch strategy: computed goto on compilers that
// support labels-as-values (GCC/Clang), otherwise a portable switch over the
// same handler bodies. Define RPCC_INTERP_THREADED=0 to force the switch.
#ifndef RPCC_INTERP_THREADED
#if defined(__GNUC__) || defined(__clang__)
#define RPCC_INTERP_THREADED 1
#else
#define RPCC_INTERP_THREADED 0
#endif
#endif

uint64_t Machine::runFast(FuncId Main) {
  return Prof ? callDecoded<true>(Main, 0, 0) : callDecoded<false>(Main, 0, 0);
}

uint64_t Machine::runJit(FuncId Main) {
  const uint64_t Ret =
      Prof ? callDecoded<true>(Main, 0, 0) : callDecoded<false>(Main, 0, 0);
  // Native frames defer the global Figure 6/7 tallies into JitRT
  // accumulators (nothing observes them mid-run and sums commute); merge
  // them exactly once, fault or not, so the final counters are exact.
  Counters.Loads += RT.LoadsAcc;
  Counters.Stores += RT.StoresAcc;
  return Ret;
}

uint64_t Machine::callDecodedDyn(FuncId FId, size_t ArgBase, size_t NArgs) {
  return Prof ? callDecoded<true>(FId, ArgBase, NArgs)
              : callDecoded<false>(FId, ArgBase, NArgs);
}

void Machine::profileDecoded(const DecodedInst &DI, uint32_t BaseSlot,
                             const uint64_t *Regs) {
  size_t Slot = BaseSlot;
  if (DI.Flags & DIFlagPtrProf) {
    // Pointer ops carry their row base; the tag comes from the runtime
    // address, exactly like the switch engine's profileMemOp.
    TagId T = resolveAddress(Regs[DI.A]);
    if (T != NoTag)
      Slot += size_t(T) + 1;
  }
  if (DI.Flags & DIFlagStore)
    Sink.countStore(Slot);
  else
    Sink.countLoad(Slot);
}

template <bool Profiled>
uint64_t Machine::callDecoded(FuncId FId, size_t ArgBase, size_t NArgs) {
  if (Err.Active)
    return 0;
  if (++CallDepth > Opts.MaxCallDepth) {
    Err.raise("call depth limit exceeded (runaway recursion?)");
    --CallDepth;
    return 0;
  }
  const DecodedFunction &DF = DM->Funcs[FId];
  uint64_t Result;
  if (!DF.HasBody) {
    Result = callBuiltin(DF.Builtin, ArgArena.data() + ArgBase, NArgs);
  } else if (JP) {
    // Lazy per-function compilation: pay emission only for functions that
    // actually run (and nothing at all on code-cache hits). Declines fall
    // back to the fast path, making --engine=jit total.
    JitProgram::Entry E = JP->entry(FId);
    if (!E && !JP->declined(FId)) {
      uint64_t Us = 0;
      E = JP->compile(DF, Us);
      JitCompileUs += Us;
    }
    JitUse[FId] = E ? JitProgram::RanNative : JitProgram::RanFallback;
    Result = E ? execJit<Profiled>(E, DF, ArgBase, NArgs)
               : execDecoded<Profiled>(DF, ArgBase, NArgs);
  } else {
    Result = execDecoded<Profiled>(DF, ArgBase, NArgs);
  }
  --CallDepth;
  return Result;
}

template <bool Profiled>
uint64_t Machine::execJit(JitProgram::Entry E, const DecodedFunction &DF,
                          size_t ArgBase, size_t NArgs) {
  // Same frame ceremony as execDecoded, in the same order, so budgets fault
  // at the same counting points and the profiler sees identical frames.
  if (checkFrameBudget(DF.FrameSize) || checkWallDeadline())
    return 0;
  const size_t FrameOff = StackMem.size();
  StackMem.resize(FrameOff + DF.FrameSize, 0);
  if (Profiled && DF.FrameSize)
    FrameStack.push_back({InterpStackBase + FrameOff, DF.Id});

  const size_t RegBase = RegArena.size();
  RegArena.resize(RegBase + DF.NumRegs, 0);
  {
    uint64_t *Regs = RegArena.data() + RegBase;
    const uint64_t *Args = ArgArena.data() + ArgBase;
    const size_t NParams = DF.ParamRegs.size();
    for (size_t I = 0; I != NArgs && I != NParams; ++I)
      Regs[DF.ParamRegs[I]] = Args[I];
  }

  // Hand the live counters and arena bases to the native frame; the call
  // shims keep them fresh across nested calls, and the epilogue flushes
  // Total back even on faults.
  RT.TotalCell = Counters.Total;
  RT.RegArenaData = RegArena.data();
  RT.StackData = StackMem.data();
  RT.HeapData = HeapMem.data();
  RT.HeapSize = HeapMem.size();
  RT.StackSize = StackMem.size();
  RT.FaultCell = Err.Active;
  const uint64_t RetVal = E(&RT, RegBase, FrameOff);
  Counters.Total = RT.TotalCell;

  if (Profiled && DF.FrameSize)
    FrameStack.pop_back();
  StackMem.resize(FrameOff);
  RegArena.resize(RegBase);
  return RetVal;
}

template <bool Profiled>
uint64_t Machine::execDecoded(const DecodedFunction &DF, size_t ArgBase,
                              size_t NArgs) {
  // Budget checks before the frame exists; mirrors the switch engine's
  // executeBody so the fault point is counting-exact across engines.
  if (checkFrameBudget(DF.FrameSize) || checkWallDeadline())
    return 0;
  const uint64_t FrameBase = InterpStackBase + StackMem.size();
  StackMem.resize(StackMem.size() + DF.FrameSize, 0);
  if (Profiled && DF.FrameSize)
    FrameStack.push_back({FrameBase, DF.Id});

  const size_t RegBase = RegArena.size();
  RegArena.resize(RegBase + DF.NumRegs, 0);
  {
    uint64_t *Regs = RegArena.data() + RegBase;
    const uint64_t *Args = ArgArena.data() + ArgBase;
    const size_t NParams = DF.ParamRegs.size();
    for (size_t I = 0; I != NArgs && I != NParams; ++I)
      Regs[DF.ParamRegs[I]] = Args[I];
  }

  uint64_t RetVal = 0;
  uint64_t *R = RegArena.data() + RegBase;
  const DecodedInst *const IP = DF.Insts.data();
  const uint32_t *const PS = DF.ProfSlots.data(); // empty unless Profiled
  (void)PS;
  FunctionCounters &FC = PerFunc[DF.Id];
  const uint64_t MaxSteps = Opts.MaxSteps;
  const DecodedInst *DI;
  size_t PC = 0;

  // The shared counters live in locals across the loop: the compiler cannot
  // keep the members in registers itself, because the memory helpers called
  // from handlers might alias them. Locals are flushed back at every exit
  // and around calls (the callee bumps the same Total, and recursion reaches
  // the same FunctionCounters), so observable state is always exact.
  uint64_t TotalLoc = Counters.Total;
  uint64_t LoadsLoc = Counters.Loads, StoresLoc = Counters.Stores;
  uint64_t FCTotalLoc = FC.Total;
  uint64_t FCLoadsLoc = FC.Loads, FCStoresLoc = FC.Stores;

#define RPCC_FLUSH_COUNTERS()                                                  \
  do {                                                                         \
    Counters.Total = TotalLoc;                                                 \
    Counters.Loads = LoadsLoc;                                                 \
    Counters.Stores = StoresLoc;                                               \
    FC.Total = FCTotalLoc;                                                     \
    FC.Loads = FCLoadsLoc;                                                     \
    FC.Stores = FCStoresLoc;                                                   \
  } while (0)
#define RPCC_RELOAD_COUNTERS()                                                 \
  do {                                                                         \
    TotalLoc = Counters.Total;                                                 \
    LoadsLoc = Counters.Loads;                                                 \
    StoresLoc = Counters.Stores;                                               \
    FCTotalLoc = FC.Total;                                                     \
    FCLoadsLoc = FC.Loads;                                                     \
    FCStoresLoc = FC.Stores;                                                   \
  } while (0)

// Counting prologue of one step; mirrors the switch engine line for line.
// The load/store tallies live in the memory handlers (which know their
// opcode statically), keeping the common-path prologue to three counters.
#define RPCC_STEP_PROLOGUE()                                                   \
  do {                                                                         \
    if (++TotalLoc > MaxSteps) {                                               \
      Err.raise("step limit exceeded (infinite loop?)");                       \
      goto fast_done;                                                          \
    }                                                                          \
    if ((TotalLoc & 0xFFFF) == 0 && checkWallDeadline())                       \
      goto fast_done;                                                          \
    ++Counters.ByOpcode[static_cast<size_t>(DI->Op)];                          \
    ++FCTotalLoc;                                                              \
    if constexpr (Profiled)                                                    \
      if (DI->Flags & DIFlagMem)                                               \
        profileDecoded(*DI, PS[PC], R);                                        \
  } while (0)

// Figure 7 / Figure 6 tallies; before the access, like the switch engine's
// prologue, so a faulting access still counts.
#define RPCC_TALLY_LOAD()                                                      \
  do {                                                                         \
    ++LoadsLoc;                                                                \
    ++FCLoadsLoc;                                                              \
  } while (0)
#define RPCC_TALLY_STORE()                                                     \
  do {                                                                         \
    ++StoresLoc;                                                               \
    ++FCStoresLoc;                                                             \
  } while (0)

#if RPCC_INTERP_THREADED
#define RPCC_DISPATCH()                                                        \
  do {                                                                         \
    DI = IP + PC;                                                              \
    RPCC_STEP_PROLOGUE();                                                      \
    goto *DispatchTable[static_cast<size_t>(DI->D)];                           \
  } while (0)
#define RPCC_CASE(name) Lbl_##name
#define RPCC_NEXT()                                                            \
  do {                                                                         \
    ++PC;                                                                      \
    RPCC_DISPATCH();                                                           \
  } while (0)
#define RPCC_JUMP() RPCC_DISPATCH()

  static const void *DispatchTable[] = {
      &&Lbl_Add,       &&Lbl_Sub,       &&Lbl_Mul,
      &&Lbl_Div,       &&Lbl_Rem,       &&Lbl_And,
      &&Lbl_Or,        &&Lbl_Xor,       &&Lbl_Shl,
      &&Lbl_Shr,       &&Lbl_CmpEq,     &&Lbl_CmpNe,
      &&Lbl_CmpLt,     &&Lbl_CmpLe,     &&Lbl_CmpGt,
      &&Lbl_CmpGe,     &&Lbl_FAdd,      &&Lbl_FSub,
      &&Lbl_FMul,      &&Lbl_FDiv,      &&Lbl_FCmpEq,
      &&Lbl_FCmpNe,    &&Lbl_FCmpLt,    &&Lbl_FCmpLe,
      &&Lbl_FCmpGt,    &&Lbl_FCmpGe,    &&Lbl_Neg,
      &&Lbl_Not,       &&Lbl_FNeg,      &&Lbl_IntToFp,
      &&Lbl_FpToInt,   &&Lbl_LoadI,     &&Lbl_LoadF,
      &&Lbl_Copy,      &&Lbl_LoadAddrAbs, &&Lbl_LoadAddrFrame,
      &&Lbl_ScalarLoadAbs, &&Lbl_ScalarLoadFrame, &&Lbl_ScalarStoreAbs,
      &&Lbl_ScalarStoreFrame, &&Lbl_PtrLoad, &&Lbl_PtrStore,
      &&Lbl_Call,      &&Lbl_CallIndirect, &&Lbl_Br,
      &&Lbl_Jmp,       &&Lbl_RetVal,    &&Lbl_RetVoid,
      &&Lbl_Fault,
  };
  assert(sizeof(DispatchTable) / sizeof(void *) == NumDecodedOps &&
         "dispatch table must cover every DecodedOp");
  RPCC_DISPATCH();
#else
#define RPCC_CASE(name) case DecodedOp::name
#define RPCC_NEXT()                                                            \
  {                                                                            \
    ++PC;                                                                      \
    break;                                                                     \
  }
#define RPCC_JUMP() break

  for (;;) {
    DI = IP + PC;
    RPCC_STEP_PROLOGUE();
    switch (DI->D) {
#endif

  RPCC_CASE(Add):
    R[DI->Result] = wrapAdd(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Sub):
    R[DI->Result] = wrapSub(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Mul):
    R[DI->Result] = wrapMul(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Div): {
    int64_t N = asI(R[DI->A]), D = asI(R[DI->B]);
    if (divFaults(N, D)) {
      Err.raise(D == 0 ? "integer division by zero"
                       : "integer division overflow (INT64_MIN / -1)");
      goto fast_done;
    }
    R[DI->Result] = static_cast<uint64_t>(sdiv(N, D));
    RPCC_NEXT();
  }
  RPCC_CASE(Rem): {
    int64_t N = asI(R[DI->A]), D = asI(R[DI->B]);
    if (D == 0) {
      Err.raise("integer remainder by zero");
      goto fast_done;
    }
    R[DI->Result] = static_cast<uint64_t>(srem(N, D));
    RPCC_NEXT();
  }
  RPCC_CASE(And):
    R[DI->Result] = R[DI->A] & R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Or):
    R[DI->Result] = R[DI->A] | R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Xor):
    R[DI->Result] = R[DI->A] ^ R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(Shl):
    R[DI->Result] = shiftLeft(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Shr):
    R[DI->Result] = shiftRightArith(R[DI->A], R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpEq):
    R[DI->Result] = R[DI->A] == R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(CmpNe):
    R[DI->Result] = R[DI->A] != R[DI->B];
    RPCC_NEXT();
  RPCC_CASE(CmpLt):
    R[DI->Result] = asI(R[DI->A]) < asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpLe):
    R[DI->Result] = asI(R[DI->A]) <= asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpGt):
    R[DI->Result] = asI(R[DI->A]) > asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(CmpGe):
    R[DI->Result] = asI(R[DI->A]) >= asI(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FAdd):
    R[DI->Result] = fromF(asF(R[DI->A]) + asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FSub):
    R[DI->Result] = fromF(asF(R[DI->A]) - asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FMul):
    R[DI->Result] = fromF(asF(R[DI->A]) * asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FDiv):
    R[DI->Result] = fromF(asF(R[DI->A]) / asF(R[DI->B]));
    RPCC_NEXT();
  RPCC_CASE(FCmpEq):
    R[DI->Result] = asF(R[DI->A]) == asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpNe):
    R[DI->Result] = asF(R[DI->A]) != asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpLt):
    R[DI->Result] = asF(R[DI->A]) < asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpLe):
    R[DI->Result] = asF(R[DI->A]) <= asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpGt):
    R[DI->Result] = asF(R[DI->A]) > asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(FCmpGe):
    R[DI->Result] = asF(R[DI->A]) >= asF(R[DI->B]);
    RPCC_NEXT();
  RPCC_CASE(Neg):
    R[DI->Result] = wrapNeg(R[DI->A]);
    RPCC_NEXT();
  RPCC_CASE(Not):
    R[DI->Result] = ~R[DI->A];
    RPCC_NEXT();
  RPCC_CASE(FNeg):
    R[DI->Result] = fromF(-asF(R[DI->A]));
    RPCC_NEXT();
  RPCC_CASE(IntToFp):
    R[DI->Result] = fromF(static_cast<double>(asI(R[DI->A])));
    RPCC_NEXT();
  RPCC_CASE(FpToInt):
    R[DI->Result] = static_cast<uint64_t>(fpToIntSat(asF(R[DI->A])));
    RPCC_NEXT();
  RPCC_CASE(LoadI):
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(LoadF):
    // The double's bit pattern was baked verbatim at decode time.
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(Copy):
    R[DI->Result] = R[DI->A];
    RPCC_NEXT();
  RPCC_CASE(LoadAddrAbs):
    R[DI->Result] = static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(LoadAddrFrame):
    R[DI->Result] = FrameBase + static_cast<uint64_t>(DI->Imm);
    RPCC_NEXT();
  RPCC_CASE(ScalarLoadAbs):
    RPCC_TALLY_LOAD();
    R[DI->Result] = loadMem(static_cast<uint64_t>(DI->Imm), DI->MemTy);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(ScalarLoadFrame):
    RPCC_TALLY_LOAD();
    R[DI->Result] =
        loadMem(FrameBase + static_cast<uint64_t>(DI->Imm), DI->MemTy);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(ScalarStoreAbs):
    RPCC_TALLY_STORE();
    storeMem(static_cast<uint64_t>(DI->Imm), DI->MemTy, R[DI->A]);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(ScalarStoreFrame):
    RPCC_TALLY_STORE();
    storeMem(FrameBase + static_cast<uint64_t>(DI->Imm), DI->MemTy, R[DI->A]);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(PtrLoad):
    RPCC_TALLY_LOAD();
    R[DI->Result] = loadMem(R[DI->A], DI->MemTy);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(PtrStore):
    RPCC_TALLY_STORE();
    storeMem(R[DI->A], DI->MemTy, R[DI->B]);
    if (Err.Active)
      goto fast_done;
    RPCC_NEXT();
  RPCC_CASE(Call): {
    const size_t AB = ArgArena.size();
    const Reg *AR = DF.ArgPool.data() + DI->T1;
    const size_t N = DI->A;
    for (size_t I = 0; I != N; ++I)
      ArgArena.push_back(R[AR[I]]);
    RPCC_FLUSH_COUNTERS();
    const uint64_t V = callDecoded<Profiled>(DI->T0, AB, N);
    RPCC_RELOAD_COUNTERS();
    ArgArena.resize(AB);
    R = RegArena.data() + RegBase; // the callee may have grown the arena
    if (Err.Active)
      goto fast_done;
    if (DI->Result != NoReg)
      R[DI->Result] = V;
    RPCC_NEXT();
  }
  RPCC_CASE(CallIndirect): {
    const uint64_t Target = R[DI->A];
    if (Target < InterpFuncBase ||
        (Target & ~InterpFuncBase) >= M.numFunctions()) {
      Err.raise("indirect call through a non-function value");
      goto fast_done;
    }
    const size_t AB = ArgArena.size();
    const Reg *AR = DF.ArgPool.data() + DI->T0;
    const size_t N = DI->T1;
    for (size_t I = 0; I != N; ++I)
      ArgArena.push_back(R[AR[I]]);
    RPCC_FLUSH_COUNTERS();
    const uint64_t V = callDecoded<Profiled>(
        static_cast<FuncId>(Target & ~InterpFuncBase), AB, N);
    RPCC_RELOAD_COUNTERS();
    ArgArena.resize(AB);
    R = RegArena.data() + RegBase;
    if (Err.Active)
      goto fast_done;
    if (DI->Result != NoReg)
      R[DI->Result] = V;
    RPCC_NEXT();
  }
  RPCC_CASE(Br):
    PC = R[DI->A] ? DI->T0 : DI->T1;
    RPCC_JUMP();
  RPCC_CASE(Jmp):
    PC = DI->T0;
    RPCC_JUMP();
  RPCC_CASE(RetVal):
    RetVal = R[DI->A];
    goto fast_done;
  RPCC_CASE(RetVoid):
    goto fast_done;
  RPCC_CASE(Fault):
    Err.raise(DF.FaultMsgs[static_cast<size_t>(DI->Imm)]);
    goto fast_done;

#if !RPCC_INTERP_THREADED
    }
  }
#endif

fast_done:
  RPCC_FLUSH_COUNTERS();

#undef RPCC_STEP_PROLOGUE
#undef RPCC_TALLY_LOAD
#undef RPCC_TALLY_STORE
#undef RPCC_FLUSH_COUNTERS
#undef RPCC_RELOAD_COUNTERS
#undef RPCC_CASE
#undef RPCC_NEXT
#undef RPCC_JUMP
#if RPCC_INTERP_THREADED
#undef RPCC_DISPATCH
#endif

  if (Profiled && DF.FrameSize)
    FrameStack.pop_back();
  StackMem.resize(FrameBase - InterpStackBase);
  RegArena.resize(RegBase);
  return RetVal;
}
