//===- jit/Jit.h - Optimizing template JIT for decoded IL -------*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third interpreter engine: a native x86-64 tier over DecodedFunction
/// streams (branch targets already instruction indices, addresses already
/// baked, callees already FuncIds). Anything with observable semantics —
/// memory faults, div/rem guards, fpToIntSat, calls, profiling — goes
/// through runtime shims that reuse the exact Machine services both
/// interpreters use, so behavior and fault messages stay byte-identical.
///
/// Beyond the baseline templates this tier carries five optimizations, all
/// invisible to the counting contract:
///
///  * Block-local host register allocation: the hottest IL registers of
///    each basic block are cached in free caller-saved host registers,
///    loaded at block entry and written back at block exit and around
///    call/shim sites — every point the interpreters could observe the
///    memory register file sees identical contents (see JitRegAlloc.h).
///  * Superinstruction templates emitted directly from the decoded stream
///    (compare+branch flag reuse, LoadI folding, FMul+FAdd/FSub), counting
///    both constituent steps exactly as the fast path counts the pair.
///  * Segment-granular budgets: unprofiled code pays a counting segment's
///    steps (a block, split at calls) at its entry and checks MaxSteps and
///    the 64K deadline poll point once there, against JitRT::Horizon; a
///    cold path polls the deadline and, when MaxSteps falls inside the
///    segment, runs a per-step copy of it that faults on the exact step.
///  * Deferred counter accumulation: ByOpcode and the load/store tallies
///    are added as static per-block totals at block exits instead of
///    per-step read-modify-writes; fault paths reconstruct the partial
///    block's counts at the precise step index through a flush shim.
///  * Per-function lazy compilation plus a process-wide code cache keyed on
///    the decoded stream, so tiny programs and repeated suite/fuzz runs
///    stop paying emission cost.
///
/// Counting-exactness is the design constraint: the step counter lives in a
/// pinned register flushed at the same points the fast path flushes its
/// locals (calls and exits close segments, and every mid-segment fault
/// site moves it back to its own step), the global load/store tallies
/// accumulate in JitRT cells merged once at the end of the run, and the
/// step-limit and frame-budget faults land on the interpreters' exact step
/// with their exact counters, so the budget-parity tests hold including
/// Counters.Total. Only the wall deadline moves: it is polled at the entry
/// of the segment that crosses a 64K step, which changes no contract,
/// because when the clock trips was never deterministic.
///
/// Functions the emitter declines (a malformed stream or frame layout,
/// out-of-range displacements) simply get no native entry and run on the
/// fast-path engine — the per-function fallback that makes --engine=jit
/// total.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_JIT_JIT_H
#define RPCC_JIT_JIT_H

#include "interp/Decode.h"
#include "interp/Interpreter.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace rpcc {

class Machine;

/// Shared cell block between emitted code and the runtime shims. Pinned in
/// r15 for the whole native activation; emitted code addresses fields by
/// offsetof, so the layout is part of the emitter's ABI. Standard layout on
/// purpose — keep plain data only.
///
/// Since the same machine code can be executed by many Machine instances
/// (the code cache shares compiled programs), emitted code never bakes a
/// per-Machine pointer: the counter arrays, the global image, and the heap
/// and stack segments are all reached through cells here.
struct JitRT {
  /// Counters.Total while native frames are live. Emitted code keeps it in
  /// r12 and flushes here around calls and exits, exactly where the fast
  /// path flushes its TotalLoc local.
  uint64_t TotalCell = 0;
  /// InterpOptions::MaxSteps, compared against r12 every step by per-step
  /// code (profiled functions, and the cold per-step copy of a counting
  /// segment the limit falls inside).
  uint64_t MaxSteps = 0;
  /// Segment-entry budget horizon. Unprofiled code adds a counting
  /// segment's static step count to r12 at the segment's entry and leaves
  /// for the cold path only when the sum passes this cell; the segment shim
  /// keeps it at min(MaxSteps, the last step before the next 64K deadline
  /// poll point). Zero at the start, so the run's first segment sets it.
  uint64_t Horizon = 0;
  /// Global Figure 6/7 tallies deferred by the native code; Machine::runJit
  /// merges them into Counters.Loads/Stores once at the end of the run.
  uint64_t LoadsAcc = 0;
  uint64_t StoresAcc = 0;
  /// RegArena.data(), refreshed by the call shims after any callee growth;
  /// emitted code rebases its frame pointer from it after every call.
  uint64_t *RegArenaData = nullptr;
  /// StackMem.data(), same refresh discipline; frame-relative scalar ops
  /// address host memory directly through it.
  uint8_t *StackData = nullptr;
  /// Mirror of InterpFault::Active (0/1), updated by every shim that can
  /// unwind with a fault; emitted code tests it after calls.
  uint64_t FaultCell = 0;
  /// &Counters.ByOpcode[0] and PerFunc.data() of the running Machine;
  /// stable for the whole run (both are sized before execution starts).
  uint64_t *ByOpcodeBase = nullptr;
  FunctionCounters *PerFuncBase = nullptr;
  /// The global image: base pointer only — its size is baked into code as
  /// an immediate (it is part of the code-cache key and never changes
  /// after layout).
  uint8_t *GlobalData = nullptr;
  /// Heap segment, refreshed by the call shims (only the malloc builtin,
  /// reached through a call, can grow it mid-activation).
  uint8_t *HeapData = nullptr;
  uint64_t HeapSize = 0;
  /// StackMem.size(); grows/shrinks only across calls, same refresh.
  uint64_t StackSize = 0;
  /// Deferred-counter segment state: the current counting segment's base
  /// Total and first instruction index. Fault paths hand (r12 - BlockSnap
  /// [- 1]) to the flush shim, which walks the decoded stream from
  /// BlockFirst reconstructing the partial ByOpcode and load/store counts.
  /// Per-step code (profiled functions, cold per-step copies) writes them
  /// at segment entry; unprofiled fast code only on its fault paths.
  /// Written by emitted code with 32-bit stores (BlockFirst/CurFn), so
  /// they must start zeroed — default init does.
  uint64_t BlockSnap = 0;
  uint64_t BlockFirst = 0;
  /// FuncId of the innermost native frame, maintained by prologues and
  /// restored after calls; the shims resolve DecodedFunction-relative
  /// operands (argument pools, fault messages, the flush walk) through it.
  uint64_t CurFn = 0;
  // Shim entry points, invoked as `call qword ptr [r15 + offsetof]`. Typed
  // void* so this header needs no shim signatures; JitRuntime.cpp installs
  // and casts them.
  const void *HelpLoad = nullptr;
  const void *HelpStore = nullptr;
  const void *HelpDiv = nullptr;
  const void *HelpRem = nullptr;
  const void *HelpFpToInt = nullptr;
  const void *HelpCall = nullptr;
  const void *HelpCallInd = nullptr;
  const void *HelpDeadline = nullptr;
  const void *HelpSegment = nullptr;
  const void *HelpStepLimit = nullptr;
  const void *HelpFault = nullptr;
  const void *HelpProfile = nullptr;
  const void *HelpFlushCounters = nullptr;
  /// The owning Machine, recovered by the shims.
  Machine *M = nullptr;
};

/// One decoded program's worth of lazily compiled native code, shared
/// across every Machine executing an identical decoded stream (the code
/// cache hands out the same instance). Thread-safe: entries publish through
/// atomics, compilation serializes on a mutex, and each function gets its
/// own mapping flipped RW -> RX before publication so no thread ever
/// executes writable memory.
class JitProgram {
public:
  /// Native calling convention of a compiled function: the shared runtime
  /// block, the frame's base index into RegArena, and the frame's byte
  /// offset into StackMem. Returns the IL return value (0 for void/fault).
  using Entry = uint64_t (*)(JitRT *RT, uint64_t RegBase, uint64_t FrameOff);

  JitProgram(size_t NumFuncs, uint64_t GlobalSize, bool Profiled);
  ~JitProgram();
  JitProgram(const JitProgram &) = delete;
  JitProgram &operator=(const JitProgram &) = delete;

  /// Published native entry, or null when \p F is a builtin, was declined,
  /// or has not been compiled yet. Lock-free; the dispatch hot path.
  Entry entry(FuncId F) const {
    return F < Entries.size()
               ? reinterpret_cast<Entry>(
                     Entries[F].load(std::memory_order_acquire))
               : nullptr;
  }
  /// True once \p F has been tried and declined — callers stop asking.
  bool declined(FuncId F) const {
    return F < Declined.size() &&
           Declined[F].load(std::memory_order_acquire) != 0;
  }
  /// Compiles \p DF on first demand (no-op if already compiled/declined by
  /// another thread) and returns the published entry, or null on decline.
  /// \p OutCompileUs reports wall microseconds actually spent emitting
  /// (0 when another thread got there first).
  Entry compile(const DecodedFunction &DF, uint64_t &OutCompileUs);

  /// How one run used function F, for recordRun.
  enum RunUse : uint8_t { NotRun = 0, RanNative = 1, RanFallback = 2 };
  /// Adds one run's share to the jit.* compile-side metrics: the static
  /// figures (code bytes, fused pairs, resident registers) of every
  /// function \p Use marks RanNative, and a decline for every one it marks
  /// RanFallback. Counting per run rather than per compile keeps the
  /// figures the same whether or not the run found the code cached.
  void recordRun(const std::vector<uint8_t> &Use) const;

  uint64_t globalSize() const { return GlobalSize; }
  bool profiled() const { return Profiled; }

private:
  const uint64_t GlobalSize; ///< baked into bounds checks
  const bool Profiled;       ///< emit profile-shim calls
  std::vector<std::atomic<void *>> Entries;
  std::vector<std::atomic<uint8_t>> Declined;
  std::mutex CompileMu;
  struct Chunk {
    uint8_t *Mem;
    size_t Size;
  };
  std::vector<Chunk> Chunks; ///< one RX mapping per compiled function
  /// Static figures of each compiled function, written before its entry is
  /// published (so a reader that saw the entry sees them).
  struct FuncStats {
    uint32_t CodeBytes = 0, FusedPairs = 0, ResidentRegs = 0;
  };
  std::vector<FuncStats> Stats;
};

/// Shared program for \p DM decoded against a global image of
/// \p GlobalSize bytes (profiling on/off changes emission, so it is part of
/// the identity). With \p UseCache, consults the process-wide cache keyed
/// on the decoded stream's content — everything the emitter bakes into code
/// — so byte-identical programs across runs share machine code; without,
/// returns a private instance. Null when the build has no JIT.
std::shared_ptr<JitProgram> jitProgramFor(const DecodedModule &DM,
                                          uint64_t GlobalSize, bool Profiled,
                                          bool UseCache);

/// Process-wide code-cache hit count (diagnostics/metrics).
uint64_t jitCacheHits();

/// Installs the shim entry points and the owning machine into \p RT.
void initJitRuntime(JitRT &RT, Machine *M);

} // namespace rpcc

#endif // RPCC_JIT_JIT_H
