//===- interp/Decode.cpp --------------------------------------------------===//

#include "interp/Decode.h"

#include <algorithm>
#include <cstring>

using namespace rpcc;

const uint32_t *FrameLayout::offsetOf(TagId T) const {
  auto It = std::lower_bound(
      Offsets.begin(), Offsets.end(), T,
      [](const std::pair<TagId, uint32_t> &E, TagId Id) { return E.first < Id; });
  if (It == Offsets.end() || It->first != T)
    return nullptr;
  return &It->second;
}

std::vector<FrameLayout> rpcc::computeFrameLayouts(const Module &M) {
  std::vector<FrameLayout> Layouts(M.numFunctions());
  for (FuncId F = 0; F != M.numFunctions(); ++F) {
    FrameLayout &L = Layouts[F];
    for (TagId Id : M.tagsOwnedBy(F)) {
      const Tag &T = M.tags().tag(Id);
      L.Size = (L.Size + 7) / 8 * 8; // every slot 8-aligned
      L.Offsets.push_back({Id, L.Size});  // ascending tag ids by construction
      L.Spans.push_back({L.Size, Id});    // ascending offsets by construction
      L.Size += std::max<uint32_t>(T.SizeBytes, 1);
    }
    L.Size = (L.Size + 7) / 8 * 8;
  }
  return Layouts;
}

GlobalLayout rpcc::computeGlobalLayout(const Module &M) {
  GlobalLayout GL;
  GL.AddrOfTag.assign(M.tags().size(), GlobalLayout::NoAddr);
  for (const GlobalInit &G : M.globals()) {
    const Tag &T = M.tags().tag(G.Tag);
    uint64_t Addr = InterpGlobalBase + GL.Image.size();
    GL.AddrOfTag[G.Tag] = Addr;
    GL.Spans.push_back({Addr, G.Tag}); // ascending by construction
    size_t Sz = std::max<size_t>(T.SizeBytes, 1);
    size_t Aligned = (Sz + 7) / 8 * 8;
    size_t Off = GL.Image.size();
    GL.Image.resize(Off + Aligned, 0);
    if (!G.Bytes.empty())
      std::memcpy(GL.Image.data() + Off, G.Bytes.data(),
                  std::min(G.Bytes.size(), Sz));
  }
  return GL;
}

namespace {

uint32_t addFaultMsg(DecodedFunction &DF, std::string Msg) {
  DF.FaultMsgs.push_back(std::move(Msg));
  return static_cast<uint32_t>(DF.FaultMsgs.size() - 1);
}

/// Resolution of a tag-addressed operand at decode time.
struct TagAddr {
  enum { Abs, Frame, Faulting } Kind = Faulting;
  uint64_t Base = 0;     ///< absolute address (Abs) or frame offset (Frame)
  uint32_t MsgIdx = 0;   ///< FaultMsgs index when Faulting
};

/// Mirrors the switch engine's tagAddress: same cases, same messages, but
/// evaluated once per instruction instead of once per executed step.
TagAddr resolveTag(const Module &M, const GlobalLayout &GL,
                   const FrameLayout &FL, FuncId F, TagId T,
                   DecodedFunction &DF) {
  TagAddr R;
  const Tag &Tg = M.tags().tag(T);
  switch (Tg.Kind) {
  case TagKind::Global: {
    uint64_t Addr = GL.addressOf(T);
    if (Addr == GlobalLayout::NoAddr) {
      R.MsgIdx = addFaultMsg(
          DF, "scalar reference to unallocated global tag " + Tg.Name);
      return R;
    }
    R.Kind = TagAddr::Abs;
    R.Base = Addr;
    return R;
  }
  case TagKind::Local:
  case TagKind::Spill: {
    const uint32_t *Off = Tg.Owner == F ? FL.offsetOf(T) : nullptr;
    if (!Off) {
      R.MsgIdx =
          addFaultMsg(DF, "scalar reference to foreign frame local " + Tg.Name);
      return R;
    }
    R.Kind = TagAddr::Frame;
    R.Base = *Off;
    return R;
  }
  case TagKind::Func:
    R.Kind = TagAddr::Abs;
    R.Base = InterpFuncBase | Tg.Fn;
    return R;
  case TagKind::Heap:
    R.MsgIdx = addFaultMsg(DF, "address of a heap summary tag");
    return R;
  }
  R.MsgIdx = addFaultMsg(DF, "address of an unknown tag kind");
  return R;
}

DecodedInst decodeInst(const Module &M, const GlobalLayout &GL,
                       const FrameLayout &FL, const DenseProfileSink *Sink,
                       const Function &F, BlockId BB, const Instruction &I,
                       const std::vector<uint32_t> &BlockStart,
                       DecodedFunction &DF, uint32_t &ProfSlot) {
  DecodedInst DI;
  DI.Op = I.Op;
  DI.MemTy = I.MemTy;
  DI.Result = I.Result;
  DI.A = I.Ops.size() > 0 ? I.Ops[0] : NoReg;
  DI.B = I.Ops.size() > 1 ? I.Ops[1] : NoReg;
  DI.Imm = I.Imm;
  if (isLoadOp(I.Op))
    DI.Flags |= DIFlagLoad;
  if (isStoreOp(I.Op))
    DI.Flags |= DIFlagStore;
  if (isMemOp(I.Op)) {
    DI.Flags |= DIFlagMem;
    if (Sink) {
      uint32_t Pair = Sink->pairOf(F.id(), BB);
      // Scalar ops profile their named tag; pointer ops resolve the runtime
      // address, so they get the row base and add the tag slot at run time.
      if (isPointerMemOp(I.Op)) {
        DI.Flags |= DIFlagPtrProf;
        ProfSlot = static_cast<uint32_t>(Sink->slot(Pair, NoTag));
      } else {
        ProfSlot = static_cast<uint32_t>(Sink->slot(Pair, I.Tag));
      }
    }
  }

  auto lowerTagOp = [&](DecodedOp AbsOp, DecodedOp FrameOp,
                        uint64_t Displacement) {
    TagAddr TA = resolveTag(M, GL, FL, F.id(), I.Tag, DF);
    switch (TA.Kind) {
    case TagAddr::Abs:
      DI.D = AbsOp;
      DI.Imm = static_cast<int64_t>(TA.Base + Displacement);
      break;
    case TagAddr::Frame:
      DI.D = FrameOp;
      DI.Imm = static_cast<int64_t>(TA.Base + Displacement);
      break;
    case TagAddr::Faulting:
      DI.D = DecodedOp::Fault;
      DI.Imm = TA.MsgIdx;
      break;
    }
  };

  switch (I.Op) {
  case Opcode::LoadF:
    DI.D = DecodedOp::LoadF;
    static_assert(sizeof(double) == sizeof(int64_t), "IEEE double expected");
    std::memcpy(&DI.Imm, &I.FImm, 8);
    break;
  case Opcode::LoadAddr:
    lowerTagOp(DecodedOp::LoadAddrAbs, DecodedOp::LoadAddrFrame,
               static_cast<uint64_t>(I.Imm));
    break;
  case Opcode::ScalarLoad:
    lowerTagOp(DecodedOp::ScalarLoadAbs, DecodedOp::ScalarLoadFrame, 0);
    break;
  case Opcode::ScalarStore:
    lowerTagOp(DecodedOp::ScalarStoreAbs, DecodedOp::ScalarStoreFrame, 0);
    break;
  case Opcode::Load:
  case Opcode::ConstLoad:
    DI.D = DecodedOp::PtrLoad;
    break;
  case Opcode::Store:
    DI.D = DecodedOp::PtrStore;
    break;
  case Opcode::Call:
    DI.D = DecodedOp::Call;
    DI.T0 = I.Callee;
    DI.T1 = static_cast<uint32_t>(DF.ArgPool.size());
    DI.A = static_cast<uint32_t>(I.Ops.size());
    DF.ArgPool.insert(DF.ArgPool.end(), I.Ops.begin(), I.Ops.end());
    break;
  case Opcode::CallIndirect:
    DI.D = DecodedOp::CallIndirect;
    DI.T0 = static_cast<uint32_t>(DF.ArgPool.size());
    DI.T1 = static_cast<uint32_t>(I.Ops.size() - 1);
    DF.ArgPool.insert(DF.ArgPool.end(), I.Ops.begin() + 1, I.Ops.end());
    break;
  case Opcode::Br:
    DI.D = DecodedOp::Br;
    DI.T0 = BlockStart[I.Target0];
    DI.T1 = BlockStart[I.Target1];
    break;
  case Opcode::Jmp:
    DI.D = DecodedOp::Jmp;
    DI.T0 = BlockStart[I.Target0];
    break;
  case Opcode::Ret:
    DI.D = I.Ops.empty() ? DecodedOp::RetVoid : DecodedOp::RetVal;
    break;
  case Opcode::Phi:
    DI.D = DecodedOp::Fault;
    DI.Imm =
        addFaultMsg(DF, "phi reached the interpreter (SSA not destructed)");
    break;
  default: // Add through Copy: the decoded opcode of the same value
    DI.D = static_cast<DecodedOp>(I.Op);
    break;
  }
  return DI;
}

} // namespace

DecodedModule rpcc::decodeModule(const Module &M, const GlobalLayout &GL,
                                 const std::vector<FrameLayout> &Layouts,
                                 const DenseProfileSink *Sink) {
  DecodedModule DM;
  DM.Funcs.resize(M.numFunctions());
  for (FuncId FI = 0; FI != M.numFunctions(); ++FI) {
    const Function &F = *M.function(FI);
    DecodedFunction &DF = DM.Funcs[FI];
    DF.Id = FI;
    DF.Builtin = F.builtin();
    DF.ParamRegs = F.paramRegs();
    DF.NumRegs = static_cast<uint32_t>(F.numRegs());
    DF.FrameSize = Layouts[FI].Size;
    if (F.isBuiltin() || F.numBlocks() == 0)
      continue;
    DF.HasBody = true;

    // Blocks concatenate in id order; every verified block ends in a
    // terminator, so the flat stream never falls through a block boundary.
    std::vector<uint32_t> BlockStart(F.numBlocks(), 0);
    uint32_t N = 0;
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      BlockStart[B] = N;
      N += static_cast<uint32_t>(F.block(B)->size());
    }
    DF.Insts.reserve(N);
    if (Sink)
      DF.ProfSlots.reserve(N);
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      for (const auto &I : F.block(B)->insts()) {
        uint32_t ProfSlot = 0;
        DF.Insts.push_back(decodeInst(M, GL, Layouts[FI], Sink, F, B, *I,
                                      BlockStart, DF, ProfSlot));
        if (Sink)
          DF.ProfSlots.push_back(ProfSlot);
      }
    DF.BlockStarts = std::move(BlockStart);
  }
  return DM;
}
