//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/SuiteRunner.h"
#include "obs/Metrics.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace rpcc;

namespace perfbench {

void Report::fail(const std::string &What) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
}

void Report::layer(const std::string &Name, double Value,
                   const std::string &Unit) {
  Layers.push_back({Name, Value, Unit});
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - double(Lo)) * (V[Hi] - V[Lo]);
}

double blockRate(const std::vector<double> &OpMs, size_t Block) {
  std::vector<double> Rates;
  for (size_t I = 0; I + Block <= OpMs.size(); I += Block) {
    double Ms = 0;
    for (size_t J = I; J != I + Block; ++J)
      Ms += OpMs[J];
    Rates.push_back(double(Block) / (Ms / 1e3));
  }
  return median(Rates);
}

TailStat tailStat(const std::vector<double> &V) {
  TailStat T;
  for (double P : {99.0, 95.0, 90.0, 50.0}) {
    double X = quantile(V, P / 100.0);
    uint64_t Beyond = static_cast<uint64_t>(
        std::count_if(V.begin(), V.end(), [X](double Y) { return Y > X; }));
    if (Beyond >= 10 || P == 50.0) {
      T = {P, X, Beyond};
      break;
    }
  }
  return T;
}

double nowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

double peakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the image that exec'd this process (the Python launcher).
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

double probeLoopMs() {
  // A dependent pointer chase around one fixed random cycle through 16 MB,
  // past a core's L2: it slows both when the host takes CPU away and when
  // neighbours crowd the shared cache and memory, which moves the workloads
  // far more than CPU alone does. It runs in a child so its buffer stays
  // out of this process's peak_rss_mb.
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return 0;
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid == 0) {
    constexpr uint32_t Slots = 1u << 22;
    std::vector<uint32_t> Next(Slots);
    std::iota(Next.begin(), Next.end(), 0u);
    uint64_t Rng = 1;
    for (uint32_t I = Slots - 1; I > 0; --I) { // Sattolo: a single cycle
      Rng = mix64(Rng);
      std::swap(Next[I], Next[Rng % I]);
    }
    double T0 = nowMs();
    uint32_t P = 0;
    for (int I = 0; I != 1 << 19; ++I)
      P = Next[P];
    double Ms = nowMs() - T0 + (P == Slots ? 1 : 0); // keeps the chase live
    ssize_t N = write(Pipe[1], &Ms, sizeof(Ms));
    _exit(N == sizeof(Ms) ? 0 : 1);
  }
  close(Pipe[1]);
  double Ms = 0;
  if (Pid < 0 || read(Pipe[0], &Ms, sizeof(Ms)) != sizeof(Ms))
    Ms = 0;
  close(Pipe[0]);
  if (Pid > 0)
    waitpid(Pid, nullptr, 0);
  return Ms;
}

double stealTicks(double &Total) {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  double F[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  In >> Cpu;
  for (double &X : F)
    In >> X;
  Total = 0;
  for (double X : F)
    Total += X;
  return F[7];
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return {};
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

NamedSources loadSuitePrograms(const std::string &Root) {
  NamedSources P;
  for (const std::string &N : benchProgramNames()) {
    std::string Src = readFile(Root + "/bench/programs/" + N + ".c");
    if (Src.empty()) {
      std::fprintf(stderr, "perfbench: cannot read bench/programs/%s.c\n",
                   N.c_str());
      return {};
    }
    P.emplace_back(N, std::move(Src));
  }
  return P;
}

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// Expected outputs
//===----------------------------------------------------------------------===//

namespace {

const char *const AnalysisKey[2] = {"modref", "points-to"};

uint64_t num(const JsonValue *V) {
  return V && V->K == JsonValue::Number ? static_cast<uint64_t>(V->Num) : 0;
}

} // namespace

bool loadSuiteExpect(const std::string &Root,
                     std::vector<ProgramExpect> &Out) {
  std::string Path = Root + "/perfbench/expected/suite.json";
  JsonValue V;
  std::string Err;
  if (!parseJson(readFile(Path), V, Err)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  const JsonValue *Progs = V.field("programs");
  if (!Progs || Progs->K != JsonValue::Array) {
    std::fprintf(stderr, "perfbench: %s: no programs array\n", Path.c_str());
    return false;
  }
  Out.clear();
  for (const JsonValue &P : Progs->Items) {
    ProgramExpect E;
    E.Name = P.strOr("name", "", Err);
    E.Exit = static_cast<int64_t>(P.numOr("exit", 0, Err));
    E.Stdout = P.strOr("stdout", "", Err);
    const JsonValue *W = P.field("with_promotion");
    for (int A = 0; A != 2; ++A) {
      const JsonValue *C = W ? W->field(AnalysisKey[A]) : nullptr;
      if (!C) {
        Err = E.Name + ": missing with_promotion." + AnalysisKey[A];
        break;
      }
      E.With[A] = {num(C->field("dyn_ops")), num(C->field("dyn_loads")),
                   num(C->field("dyn_stores")), num(C->field("static_ops")),
                   num(C->field("promoted_tags"))};
    }
    if (!Err.empty()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", Path.c_str(), Err.c_str());
      return false;
    }
    Out.push_back(std::move(E));
  }
  if (Out.size() != benchProgramNames().size()) {
    std::fprintf(stderr, "perfbench: %s: expected %zu programs\n",
                 Path.c_str(), benchProgramNames().size());
    return false;
  }
  for (size_t I = 0; I != Out.size(); ++I)
    if (Out[I].Name != benchProgramNames()[I]) {
      std::fprintf(stderr, "perfbench: %s: program %zu is %s, not %s\n",
                   Path.c_str(), I, Out[I].Name.c_str(),
                   benchProgramNames()[I].c_str());
      return false;
    }
  return true;
}

int makeExpected(const std::string &Root) {
  auto Progs = loadSuitePrograms(Root);
  if (Progs.empty())
    return 1;
  std::string J = "{\n  \"generator\": \"rpcc_perfbench --make-expected\",\n"
                  "  \"programs\": [\n";
  for (size_t I = 0; I != Progs.size(); ++I) {
    const auto &[Name, Src] = Progs[I];
    // Reference behavior: the unoptimized pipeline on the switch engine.
    CompilerConfig Ref;
    Ref.ScalarPromotion = false;
    Ref.EnableOpts = false;
    Ref.RegisterAllocation = false;
    InterpOptions RefIO;
    RefIO.Engine = InterpEngine::Switch;
    ExecResult Base = compileAndRun(Src, Ref, RefIO);
    if (!Base.Ok) {
      std::fprintf(stderr, "perfbench: %s: reference run failed: %s\n",
                   Name.c_str(), Base.Error.c_str());
      return 1;
    }
    J += "    {\"name\": \"" + Name + "\", \"exit\": " +
         std::to_string(Base.ExitCode) + ", \"stdout\": \"" +
         jsonEscape(Base.Output) + "\",\n     \"with_promotion\": {";
    // The suite's with-promotion cells (SuiteRunner's configuration), on
    // the reference engine: counts are engine-independent by contract.
    FrontendArtifact FA = runFrontend(Src);
    for (int A = 0; A != 2; ++A) {
      AnalysisKind K = A ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
      AnalyzedModule AM = analyzeFrontend(FA, K);
      CompilerConfig Cfg;
      Cfg.Analysis = K;
      CompileOutput CO = compileSuffix(AM, Cfg);
      ExecResult E = CO.Ok ? interpret(*CO.M, RefIO) : ExecResult();
      if (!E.Ok) {
        std::fprintf(stderr, "perfbench: %s/%s: with-promotion cell failed\n",
                     Name.c_str(), AnalysisKey[A]);
        return 1;
      }
      char Cell[320];
      std::snprintf(
          Cell, sizeof(Cell),
          "%s\n       \"%s\": {\"dyn_ops\": %llu, \"dyn_loads\": %llu, "
          "\"dyn_stores\": %llu, \"static_ops\": %llu, \"promoted_tags\": %u}",
          A ? "," : "", AnalysisKey[A],
          static_cast<unsigned long long>(E.Counters.Total),
          static_cast<unsigned long long>(E.Counters.Loads),
          static_cast<unsigned long long>(E.Counters.Stores),
          static_cast<unsigned long long>(countStaticOps(*CO.M)),
          CO.Stats.Promo.PromotedTags);
      J += Cell;
    }
    J += "}}";
    J += I + 1 == Progs.size() ? "\n" : ",\n";
  }
  J += "  ]\n}\n";
  std::fputs(J.c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Registry and pass-report readers
//===----------------------------------------------------------------------===//

RegistryReading RegistryReading::now() {
  RegistryReading R;
  for (const MetricSample &S : MetricsRegistry::global().snapshot()) {
    if (S.Name == "jit.compile_us")
      R.JitCompileUs += double(S.Sum);
    else if (S.Name == "served.cache_hits")
      R.ServedHits += double(S.Value);
    else if (S.Name == "served.cache_misses")
      R.ServedMisses += double(S.Value);
    else if (S.Name == "served.cache_bypass")
      R.ServedBypass += double(S.Value);
  }
  return R;
}

namespace {

template <typename Op>
RegistryReading combine(const RegistryReading &L, const RegistryReading &R,
                        Op F) {
  RegistryReading D;
  D.JitCompileUs = F(L.JitCompileUs, R.JitCompileUs);
  D.ServedHits = F(L.ServedHits, R.ServedHits);
  D.ServedMisses = F(L.ServedMisses, R.ServedMisses);
  D.ServedBypass = F(L.ServedBypass, R.ServedBypass);
  return D;
}

} // namespace

RegistryReading RegistryReading::operator-(const RegistryReading &O) const {
  return combine(*this, O, [](double A, double B) { return A - B; });
}

RegistryReading RegistryReading::operator+(const RegistryReading &O) const {
  return combine(*this, O, [](double A, double B) { return A + B; });
}

void StageCounts::add(const CompileStats &S) {
  RegallocRounds += S.RegAlloc.Rounds;
  SpilledRegs += S.RegAlloc.SpilledRegs;
  CoalescedCopies += S.RegAlloc.CoalescedCopies;
  PromotedTags += S.Promo.PromotedTags + S.PtrPromo.PromotedRefs;
  RewrittenOps += S.Promo.RewrittenOps;
}

void StageCounts::addScaled(const StageCounts &O, double K) {
  RegallocRounds += K * O.RegallocRounds;
  SpilledRegs += K * O.SpilledRegs;
  CoalescedCopies += K * O.CoalescedCopies;
  PromotedTags += K * O.PromotedTags;
  RewrittenOps += K * O.RewrittenOps;
}

namespace {

/// Pass milliseconds and invocations by pass name.
double passMs(const TimingReport &T, const std::string &Name) {
  double Ms = 0;
  for (const PassTime &P : T.Passes)
    if (P.Name == Name)
      Ms += P.Millis;
  return Ms;
}

uint64_t passCalls(const TimingReport &T, const std::string &Name) {
  uint64_t N = 0;
  for (const PassTime &P : T.Passes)
    if (P.Name == Name)
      N += P.Invocations;
  return N;
}

} // namespace

void addPipelineLayers(Report &R, const TimingReport &T,
                       const RegistryReading &D, const StageCounts &C,
                       double Ops) {
  auto Per = [Ops](double X) { return Ops > 0 ? X / Ops : 0; };
  auto Sum = [&T](std::initializer_list<const char *> Names) {
    double Ms = 0;
    for (const char *N : Names)
      Ms += passMs(T, N);
    return Ms;
  };
  R.layer("interp.ms", Per(T.InterpMillis), "ms");
  R.layer("interp.steps", Per(double(T.InterpSteps)), "count");
  R.layer("interp.msteps_per_s",
          T.InterpMillis > 0 ? double(T.InterpSteps) / T.InterpMillis / 1e3
                             : 0,
          "Msteps/s");
  R.layer("jit.compile_ms", Per(D.JitCompileUs / 1e3), "ms");
  R.layer("regalloc.ms", Per(passMs(T, "regalloc")), "ms");
  R.layer("regalloc.rounds", Per(C.RegallocRounds), "count");
  R.layer("regalloc.spilled_regs", Per(C.SpilledRegs), "count");
  R.layer("regalloc.coalesced_copies", Per(C.CoalescedCopies), "count");
  R.layer("opt.ms", Per(Sum({"strengthen", "vn", "pre", "copy-prop", "sccp",
                             "cleanup", "licm", "dce"})),
          "ms");
  R.layer("opt.pre.ms", Per(passMs(T, "pre")), "ms");
  R.layer("opt.vn.ms", Per(passMs(T, "vn")), "ms");
  R.layer("opt.sccp.ms", Per(passMs(T, "sccp")), "ms");
  R.layer("opt.licm.ms", Per(passMs(T, "licm")), "ms");
  R.layer("promote.ms", Per(Sum({"promote", "ptr-promote"})), "ms");
  R.layer("promote.tags", Per(C.PromotedTags), "count");
  R.layer("promote.rewritten_ops", Per(C.RewrittenOps), "count");
  R.layer("ir.verify_ms", Per(passMs(T, "verify")), "ms");
  R.layer("driver.suffix_ms", Per(T.SuffixMillis), "ms");
  R.layer("driver.suffix_calls", Per(double(T.Compiles)), "count");
  R.layer("driver.cache_hits", Per(double(T.CacheHits)), "count");
  R.layer("driver.cache_misses", Per(double(T.CacheMisses)), "count");
  // The prefix wall (FrontendMillis) covers both prefix stages; the alias
  // share is its two analysis passes, the frontend share the remainder.
  double AliasMs = Sum({"points-to", "modref"});
  R.layer("frontend.ms", Per(std::max(0.0, T.FrontendMillis - AliasMs)), "ms");
  R.layer("frontend.calls", Per(double(passCalls(T, "lower"))), "count");
  R.layer("alias.ms", Per(AliasMs), "ms");
  R.layer("alias.calls", Per(double(passCalls(T, "modref"))), "count");
}

//===----------------------------------------------------------------------===//
// Set-up measurement
//===----------------------------------------------------------------------===//

void sampleSetup(const RunArgs &A, Report &R) {
  int Pipe[2];
  if (pipe(Pipe) != 0) {
    R.fail("set-up probe: pipe() failed");
    return;
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Pipe[1], 1);
  posix_spawn_file_actions_addclose(&FA, Pipe[0]);
  std::vector<std::string> Args = {"rpcc_perfbench", "--setup-probe",
                                   A.Workload, "--root", A.Root};
  std::vector<char *> Argv;
  for (std::string &S : Args)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  double T0 = nowMs();
  int Rc = posix_spawn(&Pid, "/proc/self/exe", &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  close(Pipe[1]);
  std::string Out;
  char Buf[256];
  ssize_t N;
  while (Rc == 0 && (N = read(Pipe[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  if (Rc == 0)
    waitpid(Pid, &Status, 0);
  double ReadyMs = 0;
  if (Rc != 0 || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      std::sscanf(Out.c_str(), "ready %lf", &ReadyMs) != 1) {
    R.fail("set-up probe for workload " + A.Workload + " did not get ready");
    return;
  }
  R.SetupSamples.push_back((ReadyMs - T0) / 1e3);
}

} // namespace perfbench
