//===- opt/ValueNumbering.cpp ---------------------------------------------===//

#include "opt/ValueNumbering.h"

#include "opt/ConstFold.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

using namespace rpcc;

namespace {

using VN = uint32_t;

/// A constant value: an integer or a double's bit pattern, plus which.
struct ConstVal {
  uint64_t Bits = 0;
  bool IsFloat = false;
};

/// One function's numbering state. Every table is either dense (indexed by
/// register, tag, or value number) or a retained-capacity hash map; the
/// register- and tag-indexed tables are epoch-stamped, so starting a new
/// block costs O(1) revalidation instead of O(registers + tags) clearing.
/// Value numbers restart at zero each block (numbering is block-local), so
/// the VN-indexed tables just reset their length.
class FunctionNumberer {
public:
  FunctionNumberer(Function &F, const Module &M, VnStats &Stats)
      : F(F), M(M), Stats(Stats), VnOfReg(F.numRegs(), 0),
        RegEpoch(F.numRegs(), 0), AvailScalarVn(M.tags().size(), 0),
        AvailScalarEpoch(M.tags().size(), 0),
        LastStoreIdx(M.tags().size(), 0),
        LastStoreEpoch(M.tags().size(), 0) {}

  void run(BasicBlock &B) {
    ++Epoch;
    NextVn = 0;
    Holder.clear();
    IsConst.clear();
    ConstOf.clear();
    ConstVn.clear();
    Exprs.clear();
    AvailPtr.clear();
    ToErase.clear();
    for (size_t Idx = 0; Idx != B.size(); ++Idx)
      visit(B, Idx, ToErase);
    // A dead store's index is pushed when the *later* store to its tag is
    // seen, so stores to different tags arrive out of order. Erasing back
    // to front only keeps the remaining indices valid once sorted.
    std::sort(ToErase.begin(), ToErase.end());
    for (auto It = ToErase.rbegin(); It != ToErase.rend(); ++It)
      B.eraseAt(*It);
  }

private:
  // -- VN bookkeeping ---------------------------------------------------------
  VN freshVn() {
    Holder.push_back(NoReg);
    IsConst.push_back(0);
    ConstOf.push_back(ConstVal{});
    return NextVn++;
  }

  VN vnOf(Reg R) {
    if (RegEpoch[R] == Epoch)
      return VnOfReg[R];
    VN V = freshVn();
    RegEpoch[R] = Epoch;
    VnOfReg[R] = V;
    Holder[V] = R;
    return V;
  }

  void setVn(Reg R, VN V) {
    RegEpoch[R] = Epoch;
    VnOfReg[R] = V;
    if (Holder[V] == NoReg)
      Holder[V] = R;
  }

  /// Register currently carrying value \p V, or NoReg.
  Reg holderOf(VN V) {
    Reg H = Holder[V];
    if (H == NoReg)
      return NoReg;
    if (RegEpoch[H] != Epoch || VnOfReg[H] != V)
      return NoReg; // holder was overwritten
    return H;
  }

  VN vnOfConst(ConstVal C) {
    uint64_t Key = C.Bits * 2 + (C.IsFloat ? 1 : 0);
    auto It = ConstVn.find(Key);
    if (It != ConstVn.end())
      return It->second;
    VN V = freshVn();
    ConstVn[Key] = V;
    IsConst[V] = 1;
    ConstOf[V] = C;
    return V;
  }

  std::optional<ConstVal> constOf(VN V) {
    if (!IsConst[V])
      return std::nullopt;
    return ConstOf[V];
  }

  // -- Scalar availability / last-store, epoch-stamped per tag ---------------
  bool availScalarGet(TagId T, VN &V) const {
    if (AvailScalarEpoch[T] != Epoch)
      return false;
    V = AvailScalarVn[T];
    return true;
  }
  void availScalarSet(TagId T, VN V) {
    AvailScalarEpoch[T] = Epoch;
    AvailScalarVn[T] = V;
  }
  void availScalarErase(TagId T) { AvailScalarEpoch[T] = 0; }

  bool lastStoreGet(TagId T, size_t &Idx) const {
    if (LastStoreEpoch[T] != Epoch)
      return false;
    Idx = LastStoreIdx[T];
    return true;
  }
  void lastStoreSet(TagId T, size_t Idx) {
    LastStoreEpoch[T] = Epoch;
    LastStoreIdx[T] = Idx;
  }
  void lastStoreErase(TagId T) { LastStoreEpoch[T] = 0; }

  // -- Kills ---------------------------------------------------------------------
  void killTag(TagId T, bool KillsValue) {
    if (KillsValue)
      availScalarErase(T);
    lastStoreErase(T);
  }

  void killTagSet(const TagSet &Tags, bool KillsValue) {
    for (TagId T : Tags)
      killTag(T, KillsValue);
    if (KillsValue) {
      // Pointer-load availability: drop entries whose sets intersect.
      for (auto It = AvailPtr.begin(); It != AvailPtr.end();) {
        bool Hit = false;
        for (TagId T : Tags)
          if (It->second.Tags.contains(T))
            Hit = true;
        It = Hit ? AvailPtr.erase(It) : ++It;
      }
    }
  }

  // -- Instruction dispatch ---------------------------------------------------
  void replaceWithCopy(Instruction &I, Reg Src) {
    Instruction NewI(Opcode::Copy);
    NewI.Result = I.Result;
    NewI.Ops = {Src};
    I = std::move(NewI);
  }

  void replaceWithConst(Instruction &I, ConstVal C) {
    Instruction NewI(C.IsFloat ? Opcode::LoadF : Opcode::LoadI);
    NewI.Result = I.Result;
    if (C.IsFloat)
      NewI.FImm = std::bit_cast<double>(C.Bits);
    else
      NewI.Imm = static_cast<int64_t>(C.Bits);
    I = std::move(NewI);
  }

  void visit(BasicBlock &B, size_t Idx, std::vector<size_t> &ToErase) {
    Instruction &I = *B.insts()[Idx];
    switch (I.Op) {
    case Opcode::LoadI:
      setVn(I.Result, vnOfConst({static_cast<uint64_t>(I.Imm), false}));
      return;
    case Opcode::LoadF:
      setVn(I.Result, vnOfConst({std::bit_cast<uint64_t>(I.FImm), true}));
      return;
    case Opcode::Copy:
      setVn(I.Result, vnOf(I.Ops[0]));
      return;
    case Opcode::LoadAddr: {
      ExprKey K{static_cast<uint32_t>(Opcode::LoadAddr),
                {static_cast<VN>(I.Tag)},
                static_cast<uint64_t>(I.Imm)};
      numberExpr(I, K);
      return;
    }
    case Opcode::ScalarLoad: {
      VN Avail;
      if (availScalarGet(I.Tag, Avail)) {
        if (Reg H = holderOf(Avail); H != NoReg) {
          // A prior load or store already has the value in a register.
          replaceWithCopy(I, H);
          setVn(I.Result, Avail);
          ++Stats.LoadsForwarded;
          // The memory value was observed; earlier store is not dead,
          // but it was the source of this value, so DSE state survives.
          return;
        }
      }
      VN V = freshVn();
      setVn(I.Result, V);
      availScalarSet(I.Tag, V);
      // The load observes memory, so the previous store is not dead.
      lastStoreErase(I.Tag);
      return;
    }
    case Opcode::ScalarStore: {
      // Block-local dead-store elimination: the previous store to this tag
      // is dead if nothing observed the value in between.
      size_t Prev;
      if (lastStoreGet(I.Tag, Prev)) {
        ToErase.push_back(Prev);
        ++Stats.DeadStores;
      }
      lastStoreSet(I.Tag, Idx);
      // Store forwarding: the stored value is now the memory value.
      // (I8 stores truncate; the frontend masks char values, so the
      // register equals the stored byte. Conservatively skip forwarding
      // for I8 anyway.)
      if (I.MemTy != MemType::I8)
        availScalarSet(I.Tag, vnOf(I.Ops[0]));
      else
        availScalarErase(I.Tag);
      return;
    }
    case Opcode::Load:
    case Opcode::ConstLoad: {
      // A pointer load may observe any tag in its set.
      for (TagId T : I.Tags)
        lastStoreErase(T);
      uint64_t K = ptrKey(vnOf(I.Ops[0]), I.MemTy);
      auto It = AvailPtr.find(K);
      if (It != AvailPtr.end()) {
        if (Reg H = holderOf(It->second.Value); H != NoReg) {
          replaceWithCopy(I, H);
          setVn(I.Result, It->second.Value);
          ++Stats.LoadsForwarded;
          return;
        }
      }
      VN V = freshVn();
      setVn(I.Result, V);
      AvailPtr[K] = PtrAvail{V, I.Tags};
      return;
    }
    case Opcode::Store: {
      killTagSet(I.Tags, /*KillsValue=*/true);
      // Forward the stored value to subsequent same-address loads.
      if (I.MemTy != MemType::I8) {
        uint64_t K = ptrKey(vnOf(I.Ops[0]), I.MemTy);
        AvailPtr[K] = PtrAvail{vnOf(I.Ops[1]), I.Tags};
      }
      return;
    }
    case Opcode::Call:
    case Opcode::CallIndirect: {
      killTagSet(I.Mods, /*KillsValue=*/true);
      // Referenced tags: stores before the call are observed.
      for (TagId T : I.Refs)
        lastStoreErase(T);
      if (I.hasResult())
        setVn(I.Result, freshVn());
      return;
    }
    case Opcode::Br:
    case Opcode::Jmp:
    case Opcode::Ret:
    case Opcode::Phi:
      return;
    default:
      break;
    }

    // Pure computation: fold or reuse. Foldable operations are unary or
    // binary.
    std::vector<VN> OpVns;
    OpVns.reserve(I.Ops.size());
    uint64_t Bits[2] = {0, 0};
    bool AllConst = !I.Ops.empty() && I.Ops.size() <= 2;
    for (size_t K = 0; K != I.Ops.size(); ++K) {
      VN V = vnOf(I.Ops[K]);
      OpVns.push_back(V);
      if (auto C = constOf(V); C && AllConst)
        Bits[K] = C->Bits;
      else
        AllConst = false;
    }
    if (AllConst) {
      if (auto Folded = foldConstant(I.Op, Bits[0], Bits[1])) {
        ConstVal C{*Folded, isFloatResult(I.Op)};
        replaceWithConst(I, C);
        setVn(I.Result, vnOfConst(C));
        ++Stats.Folded;
        return;
      }
    }
    if (isCommutative(I.Op) && OpVns.size() == 2 && OpVns[0] > OpVns[1])
      std::swap(OpVns[0], OpVns[1]);
    ExprKey K{static_cast<uint32_t>(I.Op), OpVns, 0};
    numberExpr(I, K);
  }

  struct ExprKey {
    uint32_t Op;
    std::vector<VN> Ops;
    uint64_t Imm;
    bool operator==(const ExprKey &O) const {
      return Op == O.Op && Imm == O.Imm && Ops == O.Ops;
    }
  };
  struct ExprKeyHash {
    size_t operator()(const ExprKey &K) const {
      uint64_t H = K.Op * 0x9E3779B97F4A7C15ull ^ K.Imm;
      for (VN V : K.Ops)
        H = (H ^ V) * 0x100000001B3ull;
      return static_cast<size_t>(H);
    }
  };

  void numberExpr(Instruction &I, const ExprKey &K) {
    auto It = Exprs.find(K);
    if (It != Exprs.end()) {
      if (Reg H = holderOf(It->second); H != NoReg) {
        replaceWithCopy(I, H);
        setVn(I.Result, It->second);
        ++Stats.Reused;
        return;
      }
    }
    VN V = freshVn();
    setVn(I.Result, V);
    Exprs[K] = V;
  }

  /// Packed (address VN, access width) key for pointer-load availability.
  /// Nothing iterates AvailPtr except the kill loop, which only erases, so
  /// hash order is fine.
  static uint64_t ptrKey(VN Addr, MemType MT) {
    return (static_cast<uint64_t>(Addr) << 2) |
           static_cast<uint64_t>(static_cast<uint8_t>(MT));
  }
  struct PtrAvail {
    VN Value;
    TagSet Tags;
  };

  Function &F;
  const Module &M;
  VnStats &Stats;

  VN NextVn = 0;
  uint32_t Epoch = 0;

  // Register-indexed, epoch-stamped.
  std::vector<VN> VnOfReg;
  std::vector<uint32_t> RegEpoch;
  // Tag-indexed, epoch-stamped.
  std::vector<VN> AvailScalarVn;
  std::vector<uint32_t> AvailScalarEpoch;
  std::vector<size_t> LastStoreIdx;
  std::vector<uint32_t> LastStoreEpoch;
  // VN-indexed; grown by freshVn, truncated per block.
  std::vector<Reg> Holder;
  std::vector<uint8_t> IsConst;
  std::vector<ConstVal> ConstOf;
  // Hash tables cleared per block (capacity is retained across blocks).
  std::unordered_map<uint64_t, VN> ConstVn;
  std::unordered_map<ExprKey, VN, ExprKeyHash> Exprs;
  std::unordered_map<uint64_t, PtrAvail> AvailPtr;

  std::vector<size_t> ToErase;
};

} // namespace

VnStats rpcc::runValueNumbering(Function &F, const Module &M) {
  VnStats Stats;
  FunctionNumberer FN(F, M, Stats);
  for (auto &B : F.blocks())
    FN.run(*B);
  return Stats;
}

VnStats rpcc::runValueNumbering(Module &M) {
  VnStats Total;
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (F->isBuiltin() || F->numBlocks() == 0)
      continue;
    VnStats S = runValueNumbering(*F, M);
    Total.Folded += S.Folded;
    Total.Reused += S.Reused;
    Total.LoadsForwarded += S.LoadsForwarded;
    Total.DeadStores += S.DeadStores;
  }
  return Total;
}
