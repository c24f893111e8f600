//===- ir/IRPrinter.cpp ---------------------------------------------------===//

#include "ir/IRPrinter.h"

#include <cstdio>
#include <sstream>

using namespace rpcc;

namespace {

std::string regName(Reg R) {
  if (R == NoReg)
    return "r?";
  return "r" + std::to_string(R);
}

std::string memSuffix(MemType T) {
  switch (T) {
  case MemType::I8:
    return ".i8";
  case MemType::I64:
    return ".i64";
  case MemType::F64:
    return ".f64";
  }
  return "";
}

// The printer is called from the verifier's failure path, so it must render
// *invalid* IL — dangling tag ids, out-of-range callees, missing operands —
// without tripping an assert of its own. Anything out of range prints as a
// clearly-marked placeholder instead.
std::string tagName(const Module &M, TagId T) {
  if (T == NoTag)
    return "tag?";
  if (T >= M.tags().size())
    return "tag#" + std::to_string(T) + "?";
  return M.tags().tag(T).Name;
}

std::string funcName(const Module &M, FuncId F) {
  if (F == NoFunc)
    return "func?";
  if (F >= M.numFunctions())
    return "func#" + std::to_string(F) + "?";
  return M.function(F)->name();
}

std::string tagSetStr(const Module &M, const TagSet &S) {
  std::string Out = "{";
  bool First = true;
  for (TagId T : S) {
    if (!First)
      Out += ",";
    First = false;
    Out += tagName(M, T);
  }
  Out += "}";
  return Out;
}

} // namespace

std::string rpcc::printInst(const Module &M, const Function &F,
                            const Instruction &I) {
  std::ostringstream OS;
  auto Tag = [&](TagId T) { return "[" + tagName(M, T) + "]"; };
  auto Op = [&](size_t K) {
    return K < I.Ops.size() ? regName(I.Ops[K]) : std::string("r?");
  };

  // "rN <- MNEMONIC": defining forms always name their result (r? when it
  // is missing), calls only when they return one.
  if (opcodeInfo(I.Op).Result == OpResult::Def ||
      (isCallOp(I.Op) && I.hasResult()))
    OS << regName(I.Result) << " <- ";
  OS << opcodeName(I.Op);

  switch (I.Op) {
  case Opcode::LoadI:
    OS << " " << I.Imm;
    break;
  case Opcode::LoadF: {
    // %.17g survives a text round-trip exactly.
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", I.FImm);
    OS << " " << Buf;
    break;
  }
  case Opcode::LoadAddr:
    OS << " " << Tag(I.Tag);
    if (I.Imm)
      OS << "+" << I.Imm;
    break;
  case Opcode::ScalarLoad:
    OS << " " << Tag(I.Tag);
    break;
  case Opcode::ScalarStore:
    OS << " " << Tag(I.Tag) << " " << Op(0);
    break;
  case Opcode::Load:
  case Opcode::ConstLoad:
    OS << memSuffix(I.MemTy) << " [" << Op(0) << "] " << tagSetStr(M, I.Tags);
    break;
  case Opcode::Store:
    OS << memSuffix(I.MemTy) << " [" << Op(0) << "] " << Op(1) << " "
       << tagSetStr(M, I.Tags);
    break;
  case Opcode::Call:
    OS << " " << funcName(M, I.Callee) << "(";
    for (size_t A = 0; A != I.Ops.size(); ++A)
      OS << (A ? "," : "") << regName(I.Ops[A]);
    OS << ") mod" << tagSetStr(M, I.Mods) << " ref" << tagSetStr(M, I.Refs);
    if (I.Tag != NoTag) // allocation call sites carry their heap tag
      OS << " site=[" << tagName(M, I.Tag) << "]";
    break;
  case Opcode::CallIndirect:
    OS << " [" << Op(0) << "](";
    for (size_t A = 1; A < I.Ops.size(); ++A)
      OS << (A > 1 ? "," : "") << regName(I.Ops[A]);
    OS << ") mod" << tagSetStr(M, I.Mods) << " ref" << tagSetStr(M, I.Refs);
    break;
  case Opcode::Br:
    OS << " " << Op(0) << " ? B" << I.Target0 << " : B" << I.Target1;
    break;
  case Opcode::Jmp:
    OS << " B" << I.Target0;
    break;
  case Opcode::Ret:
    if (!I.Ops.empty())
      OS << " " << regName(I.Ops[0]);
    break;
  case Opcode::Phi:
    for (const auto &[B, R] : I.PhiIns)
      OS << " [B" << B << ":" << regName(R) << "]";
    break;
  default: // register-to-register form
    for (size_t A = 0; A != I.Ops.size(); ++A)
      OS << (A ? ", " : " ") << regName(I.Ops[A]);
    break;
  }
  return OS.str();
}

std::string rpcc::printFunction(const Module &M, const Function &F) {
  std::ostringstream OS;
  OS << "func " << F.name() << "(";
  for (size_t P = 0; P != F.paramRegs().size(); ++P) {
    Reg R = F.paramRegs()[P];
    OS << (P ? "," : "") << regName(R) << ":"
       << (F.regType(R) == RegType::Flt ? "f64" : "i64");
  }
  OS << ")";
  if (F.returnsValue())
    OS << " -> " << (F.returnType() == RegType::Flt ? "f64" : "i64");
  OS << " {\n";
  for (const auto &B : F.blocks()) {
    OS << "B" << B->id();
    if (!B->name().empty())
      OS << " (" << B->name() << ")";
    OS << ":\n";
    for (const auto &I : B->insts())
      OS << "  " << printInst(M, F, *I) << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string rpcc::printCfgDot(const Module &M, const Function &F) {
  std::ostringstream OS;
  OS << "digraph \"" << F.name() << "\" {\n";
  OS << "  node [shape=box, fontname=\"monospace\"];\n";
  auto Escape = [](const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out.push_back('\\');
      Out.push_back(C);
    }
    return Out;
  };
  for (const auto &B : F.blocks()) {
    OS << "  B" << B->id() << " [label=\"B" << B->id();
    if (!B->name().empty())
      OS << " (" << Escape(B->name()) << ")";
    OS << "\\l";
    for (const auto &I : B->insts())
      OS << Escape(printInst(M, F, *I)) << "\\l";
    OS << "\"];\n";
    const Instruction *T = B->terminator();
    if (!T)
      continue;
    if (T->Op == Opcode::Br) {
      OS << "  B" << B->id() << " -> B" << T->Target0
         << " [label=\"T\"];\n";
      OS << "  B" << B->id() << " -> B" << T->Target1
         << " [label=\"F\"];\n";
    } else if (T->Op == Opcode::Jmp) {
      OS << "  B" << B->id() << " -> B" << T->Target0 << ";\n";
    }
  }
  OS << "}\n";
  return OS.str();
}

std::string rpcc::printModule(const Module &M) {
  std::ostringstream OS;
  // Tag directives are real syntax (the IL parser reads them back), not
  // comments.
  for (const Tag &T : M.tags()) {
    OS << "tag " << T.Name << " kind=";
    switch (T.Kind) {
    case TagKind::Global: OS << "global"; break;
    case TagKind::Local: OS << "local"; break;
    case TagKind::Heap: OS << "heap"; break;
    case TagKind::Func: OS << "func"; break;
    case TagKind::Spill: OS << "spill"; break;
    }
    OS << " size=" << T.SizeBytes;
    OS << " val=" << (T.ValTy == MemType::I8
                          ? "i8"
                          : T.ValTy == MemType::F64 ? "f64" : "i64");
    // funcName tolerates dangling ids: the printer also renders corrupted
    // modules from the verifier's failure path (see the comment atop
    // tagName), and Module::function would assert on them.
    if (T.Kind == TagKind::Local || T.Kind == TagKind::Spill)
      OS << " owner=" << funcName(M, T.Owner);
    if (T.Kind == TagKind::Func)
      OS << " fn=" << funcName(M, T.Fn);
    if (T.IsScalar)
      OS << " scalar";
    if (T.AddressTaken)
      OS << " addressed";
    if (T.ReadOnly)
      OS << " ro";
    OS << "\n";
  }
  // Global storage directives, with any nonzero initializer bytes in hex.
  for (const GlobalInit &G : M.globals()) {
    OS << "global " << tagName(M, G.Tag);
    bool AnyNonZero = false;
    for (uint8_t B : G.Bytes)
      AnyNonZero |= B != 0;
    if (AnyNonZero) {
      OS << " init=";
      static const char *Hex = "0123456789abcdef";
      for (uint8_t B : G.Bytes) {
        OS << Hex[B >> 4] << Hex[B & 15];
      }
    }
    OS << "\n";
  }
  for (size_t I = 0; I != M.numFunctions(); ++I) {
    const Function *F = M.function(static_cast<FuncId>(I));
    if (F->isBuiltin())
      continue;
    OS << "\n" << printFunction(M, *F);
  }
  return OS.str();
}
