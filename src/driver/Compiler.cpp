//===- driver/Compiler.cpp ------------------------------------------------===//

#include "driver/Compiler.h"

#include "alias/ModRef.h"
#include "alias/PointsTo.h"
#include "analysis/CfgNormalize.h"
#include "frontend/Lowering.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/Remark.h"
#include "obs/ResidualAudit.h"
#include "obs/Trace.h"
#include "opt/Cleanup.h"
#include "opt/CopyProp.h"
#include "opt/Dce.h"

using namespace rpcc;

namespace {

void normalizeAll(Module &M) {
  for (size_t FI = 0; FI != M.numFunctions(); ++FI) {
    Function *F = M.function(static_cast<FuncId>(FI));
    if (!F->isBuiltin() && F->numBlocks())
      normalizeLoops(*F);
  }
}

} // namespace

namespace {

/// Stamps CompileOutput::Timing with the whole-pipeline wall time on every
/// exit path when timing collection is on.
struct PipelineClock {
  CompileOutput &Out;
  bool Enabled;
  double Start;
  PipelineClock(CompileOutput &Out, bool Enabled)
      : Out(Out), Enabled(Enabled), Start(Enabled ? timingNowMs() : 0) {}
  ~PipelineClock() {
    if (Enabled) {
      Out.Timing.CompileMillis = timingNowMs() - Start;
      Out.Timing.Compiles = 1;
    }
  }
};

/// Wraps one pass: records wall time and static op counts before/after when
/// a timing report is attached, adds a trace span when tracing is on,
/// otherwise just runs the pass. Shared by all three pipeline stages so the
/// staged and in-place paths observe identically.
struct PassRunner {
  Module &M;
  TimingReport *Timing; ///< null when not collecting
  TraceCollector *Trace;
  std::string Label;

  template <typename BodyT> void run(const char *Name, BodyT &&Body) {
    if (!Timing && !Trace) {
      Body();
      return;
    }
    uint64_t Before = Timing ? countStaticOps(M) : 0;
    double T0 = timingNowMs();
    Body();
    double T1 = timingNowMs();
    if (Timing)
      Timing->addPass(Name, T1 - T0, Before, countStaticOps(M));
    if (Trace) {
      std::vector<std::pair<std::string, std::string>> Args;
      if (!Label.empty())
        Args.push_back({"job", Label});
      Trace->addSpan(Name, "pass", T0, T1 - T0, std::move(Args));
    }
  }
};

/// Stage 1 body: lowering plus the landing-pad/dedicated-exit CFG shape the
/// paper's CFG construction guarantees.
bool frontendInto(const std::string &Source, Module &M, std::string &Errors,
                  PassRunner &R) {
  bool Lowered = false;
  R.run("lower", [&] { Lowered = compileToIL(Source, M, Errors); });
  if (!Lowered)
    return false;
  R.run("cfg-normalize", [&] { normalizeAll(M); });
  return true;
}

/// Stage 2 body: interprocedural analysis; encodes results in tag sets and
/// call summaries for the suffix to consume.
void analyzeInto(Module &M, AnalysisKind Kind, PassRunner &R) {
  if (Kind == AnalysisKind::PointsTo) {
    PointsToResult PT;
    R.run("points-to", [&] { PT = runPointsTo(M); });
    R.run("modref", [&] { runModRef(M, &PT); });
  } else {
    R.run("modref", [&] { runModRef(M); });
  }
}

/// Stage 3 body: everything configuration-dependent, from the fuzzer's
/// analysis-widening hook through verification and the residual audit.
/// Sets Out.Ok/Out.Errors; Out.M must already alias M.
void suffixInto(Module &M, CompileOutput &Out, const CompilerConfig &Cfg,
                PassRunner &R) {
  if (Cfg.PostAnalysisHook)
    Cfg.PostAnalysisHook(M);
  R.run("strengthen", [&] { Out.Stats.Strengthen = strengthenOpcodes(M); });

  // Register promotion happens "in the early phases of optimization".
  if (Cfg.ScalarPromotion)
    R.run("promote", [&] {
      Out.Stats.Promo = promoteScalars(M, Cfg.Promo, Cfg.Remarks);
    });

  if (Cfg.EnableOpts) {
    R.run("vn", [&] { Out.Stats.Vn = runValueNumbering(M); });
    R.run("pre", [&] { Out.Stats.Pre = runPre(M, Cfg.Remarks); });
    R.run("copy-prop", [&] { propagateCopies(M); });
    R.run("sccp", [&] { Out.Stats.Sccp = runSccp(M); });
    R.run("cleanup", [&] { runCleanup(M); });
    R.run("cfg-normalize", [&] { normalizeAll(M); });
    R.run("licm", [&] { Out.Stats.Licm = runLicm(M, Cfg.Remarks); });
  }

  // §3.3 pointer-based promotion runs after LICM has exposed invariant
  // base addresses.
  if (Cfg.PointerPromotion) {
    R.run("cfg-normalize", [&] { normalizeAll(M); });
    R.run("ptr-promote", [&] {
      Out.Stats.PtrPromo = promotePointers(M, Cfg.Remarks);
    });
  }

  if (Cfg.EnableOpts)
    R.run("dce", [&] { Out.Stats.DceRemoved = runDce(M); });

  if (Cfg.RegisterAllocation) {
    RegAllocOptions RA;
    RA.NumRegisters = Cfg.NumRegisters;
    RA.GeorgeCoalescing = !Cfg.ClassicAllocator;
    RA.Rematerialization = !Cfg.ClassicAllocator;
    R.run("regalloc", [&] { Out.Stats.RegAlloc = allocateRegisters(M, RA); });
  }

  R.run("cleanup", [&] { runCleanup(M); });

  bool Verified = false;
  std::string VerifyErr;
  R.run("verify", [&] { Verified = verifyModule(M, VerifyErr); });
  if (!Verified) {
    Out.Errors = "internal error: pipeline produced invalid IL:\n" + VerifyErr;
    return;
  }

  // Residual audit on the final IL: every surviving in-loop memory op gets
  // a remark with a concrete reason code, so dynamic profiles always join.
  if (Cfg.Remarks && Cfg.ResidualAudit)
    R.run("residual-audit", [&] {
      ResidualAuditOptions AO;
      AO.ScalarPromotion = Cfg.ScalarPromotion;
      AO.PointerPromotion = Cfg.PointerPromotion;
      AO.PromotionBudget = Cfg.Promo.MaxPromotedPerLoop != 0;
      auditResidualMemOps(M, AO, *Cfg.Remarks);
    });

  Out.Ok = true;
}

} // namespace

FrontendArtifact rpcc::runFrontend(const std::string &Source,
                                   const StageOptions &Opts) {
  FrontendArtifact FA;
  FA.M = std::make_unique<Module>();
  double T0 = timingNowMs();
  PassRunner R{*FA.M, Opts.CollectTiming ? &FA.Timing : nullptr, Opts.Trace,
               Opts.TraceLabel};
  FA.Ok = frontendInto(Source, *FA.M, FA.Errors, R);
  FA.WallMillis = timingNowMs() - T0;
  return FA;
}

AnalyzedModule rpcc::analyzeFrontend(const FrontendArtifact &FA,
                                     AnalysisKind Kind,
                                     const StageOptions &Opts) {
  AnalyzedModule AM;
  AM.Analysis = Kind;
  AM.M = FA.M ? FA.M->clone() : std::make_unique<Module>();
  if (!FA.Ok) {
    AM.Errors = FA.Errors;
    return AM;
  }
  double T0 = timingNowMs();
  PassRunner R{*AM.M, Opts.CollectTiming ? &AM.Timing : nullptr, Opts.Trace,
               Opts.TraceLabel};
  analyzeInto(*AM.M, Kind, R);
  AM.WallMillis = timingNowMs() - T0;
  AM.Ok = true;
  return AM;
}

CompileOutput rpcc::compileSuffix(const AnalyzedModule &AM,
                                  const CompilerConfig &Cfg) {
  static Histogram SuffixUs = MetricsRegistry::global().histogram(
      "compile.suffix_us", {}, MetricStability::CountStable, "us",
      "Config-dependent compile suffix latency.");
  uint64_t StartUs = metricsNowUs();
  CompileOutput Out;
  {
    PipelineClock Clock(Out, Cfg.CollectTiming);
    Out.M = AM.M ? AM.M->clone() : std::make_unique<Module>();
    if (AM.Ok) {
      assert(Cfg.Analysis == AM.Analysis &&
             "suffix config disagrees with the analysis baked into the module");
      PassRunner R{*Out.M, Cfg.CollectTiming ? &Out.Timing : nullptr,
                   Cfg.Trace, Cfg.TraceLabel};
      double T0 = Cfg.CollectTiming ? timingNowMs() : 0;
      suffixInto(*Out.M, Out, Cfg, R);
      if (Cfg.CollectTiming)
        Out.Timing.SuffixMillis = timingNowMs() - T0;
    } else {
      Out.Errors = AM.Errors;
    }
  }
  SuffixUs.observe(metricsNowUs() - StartUs);
  return Out;
}

CompileOutput rpcc::compileProgram(const std::string &Source,
                                   const CompilerConfig &Cfg) {
  CompileOutput Out;
  Out.M = std::make_unique<Module>();
  PipelineClock Clock(Out, Cfg.CollectTiming);
  PassRunner R{*Out.M, Cfg.CollectTiming ? &Out.Timing : nullptr, Cfg.Trace,
               Cfg.TraceLabel};

  double T0 = Cfg.CollectTiming ? timingNowMs() : 0;
  if (!frontendInto(Source, *Out.M, Out.Errors, R))
    return Out;
  analyzeInto(*Out.M, Cfg.Analysis, R);
  double T1 = Cfg.CollectTiming ? timingNowMs() : 0;
  suffixInto(*Out.M, Out, Cfg, R);
  if (Cfg.CollectTiming) {
    Out.Timing.FrontendMillis = T1 - T0;
    Out.Timing.SuffixMillis = timingNowMs() - T1;
  }
  return Out;
}

ExecResult rpcc::compileAndRun(const std::string &Source,
                               const CompilerConfig &Cfg,
                               const InterpOptions &IOpts) {
  CompileOutput Out = compileProgram(Source, Cfg);
  if (!Out.Ok) {
    ExecResult R;
    R.Error = Out.Errors;
    return R;
  }
  return interpret(*Out.M, IOpts);
}
