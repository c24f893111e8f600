//===- tests/EngineParityTest.cpp - Cross-engine bit parity ---------------===//
//
// Every execution engine must be observationally indistinguishable from the
// reference switch engine: identical counters (total, loads, stores,
// per-opcode), per-function attribution, tag profiles, output bytes, exit
// codes, and fault messages — on every suite program, on generated fuzz
// programs, and on faulting executions, with profiling on and off. The
// comparison is three-way (switch, fastpath, jit) on hosts with a jit;
// elsewhere the jit leg is skipped. Any mismatch here means a decode,
// dispatch, or code-emission bug (the jit's superinstruction templates
// included), not noise.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"
#include "driver/SuiteRunner.h"
#include "frontend/Lowering.h"
#include "fuzz/ProgramGenerator.h"
#include "interp/Interpreter.h"
#include "obs/TagProfile.h"

#include <gtest/gtest.h>

using namespace rpcc;

namespace {

/// Asserts every observable of \p Got is bitwise equal to the reference
/// result \p Ref.
void expectSameResult(const ExecResult &Ref, const ExecResult &Got,
                      const std::string &What) {
  EXPECT_EQ(Ref.Ok, Got.Ok) << What;
  EXPECT_EQ(Ref.Error, Got.Error) << What;
  EXPECT_EQ(Ref.ExitCode, Got.ExitCode) << What;
  EXPECT_EQ(Ref.Output, Got.Output) << What;

  EXPECT_EQ(Ref.Counters.Total, Got.Counters.Total) << What;
  EXPECT_EQ(Ref.Counters.Loads, Got.Counters.Loads) << What;
  EXPECT_EQ(Ref.Counters.Stores, Got.Counters.Stores) << What;
  for (size_t Op = 0; Op != NumOpcodes; ++Op)
    EXPECT_EQ(Ref.Counters.ByOpcode[Op], Got.Counters.ByOpcode[Op])
        << What << " opcode " << opcodeName(static_cast<Opcode>(Op));

  ASSERT_EQ(Ref.PerFunction.size(), Got.PerFunction.size()) << What;
  for (size_t F = 0; F != Ref.PerFunction.size(); ++F) {
    EXPECT_EQ(Ref.PerFunction[F].Total, Got.PerFunction[F].Total)
        << What << " func " << F;
    EXPECT_EQ(Ref.PerFunction[F].Loads, Got.PerFunction[F].Loads)
        << What << " func " << F;
    EXPECT_EQ(Ref.PerFunction[F].Stores, Got.PerFunction[F].Stores)
        << What << " func " << F;
  }

  ASSERT_EQ(Ref.Profile.Counts.size(), Got.Profile.Counts.size()) << What;
  for (size_t I = 0; I != Ref.Profile.Counts.size(); ++I) {
    const TagLoopCount &A = Ref.Profile.Counts[I];
    const TagLoopCount &B = Got.Profile.Counts[I];
    EXPECT_EQ(A.Func, B.Func) << What << " profile row " << I;
    EXPECT_EQ(A.Loop, B.Loop) << What << " profile row " << I;
    EXPECT_EQ(A.Tag, B.Tag) << What << " profile row " << I;
    EXPECT_EQ(A.Loads, B.Loads) << What << " profile row " << I;
    EXPECT_EQ(A.Stores, B.Stores) << What << " profile row " << I;
  }
}

/// Runs \p M under every available engine with the same options and asserts
/// each one matches the reference switch engine bit for bit.
void expectParity(Module &M, const InterpOptions &Base,
                  const std::string &What) {
  InterpOptions SwOpts = Base;
  SwOpts.Engine = InterpEngine::Switch;
  ExecResult Sw = interpret(M, SwOpts);

  InterpOptions FpOpts = Base;
  FpOpts.Engine = InterpEngine::FastPath;
  expectSameResult(Sw, interpret(M, FpOpts), What + " {fastpath}");

  if (jitSupported()) {
    InterpOptions JitOpts = Base;
    JitOpts.Engine = InterpEngine::Jit;
    expectSameResult(Sw, interpret(M, JitOpts), What + " {jit}");
  }
}

/// Parity with and without a profile sink attached. Profiled runs take
/// different code in every engine: the interpreters attribute each memory
/// step to its tag, and the jit emits profile shims with register
/// residency disabled.
void expectParityBothProfiles(Module &M, const std::string &What) {
  expectParity(M, InterpOptions{}, What + " [unprofiled]");
  ProfileMeta Meta = ProfileMeta::build(M);
  InterpOptions Prof;
  Prof.Profile = &Meta;
  expectParity(M, Prof, What + " [profiled]");
}

// -- Suite programs -----------------------------------------------------------

class SuiteParity : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteParity, FullPipelineProgramMatches) {
  CompilerConfig Cfg;
  Cfg.Analysis = AnalysisKind::PointsTo;
  CompileOutput Out = compileProgram(loadBenchProgram(GetParam()), Cfg);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  expectParityBothProfiles(*Out.M, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, SuiteParity,
                         ::testing::ValuesIn(benchProgramNames()),
                         [](const auto &Info) { return Info.param; });

// -- Generated programs -------------------------------------------------------

TEST(EngineParityTest, GeneratedProgramsMatch) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Module M;
    std::string Err;
    ASSERT_TRUE(compileToIL(generateProgram(Seed), M, Err)) << Err;
    expectParityBothProfiles(M, "fuzz seed " + std::to_string(Seed));
  }
}

// -- Faulting executions ------------------------------------------------------

Module compileOrDie(const std::string &Src) {
  Module M;
  std::string Err;
  EXPECT_TRUE(compileToIL(Src, M, Err)) << Err;
  return M;
}

TEST(EngineParityTest, DivisionByZeroFaultMatches) {
  Module M = compileOrDie("int main() { int a; int b; a = 7; b = 0;\n"
                          "return a / b; }");
  expectParityBothProfiles(M, "div by zero");
}

TEST(EngineParityTest, DivisionByZeroFaultMessageExact) {
  // The message text itself is part of the contract (reproducer logs diff
  // it); assert it verbatim on every engine, not just pairwise-equal.
  Module M = compileOrDie("int main() { int a; a = 3; return a / (a - a); }");
  for (InterpEngine E :
       {InterpEngine::Switch, InterpEngine::FastPath, InterpEngine::Jit}) {
    if (E == InterpEngine::Jit && !jitSupported())
      continue;
    InterpOptions O;
    O.Engine = E;
    ExecResult R = interpret(M, O);
    EXPECT_FALSE(R.Ok) << interpEngineName(E);
    EXPECT_EQ(R.Error, "integer division by zero") << interpEngineName(E);
  }
}

TEST(EngineParityTest, NullDereferenceFaultMatches) {
  Module M = compileOrDie("int main() { int *p; p = (int *)0;\n"
                          "return *p; }");
  expectParityBothProfiles(M, "null deref");
}

TEST(EngineParityTest, CallDepthFaultMatches) {
  Module M = compileOrDie("int f(int n) { return f(n + 1); }\n"
                          "int main() { return f(0); }");
  InterpOptions O;
  O.MaxCallDepth = 64;
  expectParity(M, O, "call depth");
}

// -- Arithmetic edge vectors --------------------------------------------------
// Each defined-behavior corner of support/Arith.h, checked across every
// engine (the jit lowers these to native idioms — cqo/idiv guards, cl-masked
// shifts, ucomisd parity tricks, the fpToIntSat helper — so the corners are
// exactly where an encoding bug would hide).

TEST(EngineParityTest, Int64MinDivMinusOneFaults) {
  // a = INT64_MIN via 1 << 63; INT64_MIN / -1 overflows and must fault
  // identically everywhere.
  Module M = compileOrDie("int main() { int a; int b; a = 1; a = a << 63;\n"
                          "b = 0 - 1; return a / b; }");
  expectParityBothProfiles(M, "INT64_MIN / -1");
}

TEST(EngineParityTest, Int64MinRemMinusOneIsZero) {
  // INT64_MIN % -1 is defined as 0 (no fault) in this IL.
  Module M = compileOrDie("int main() { int a; int b; a = 1; a = a << 63;\n"
                          "b = 0 - 1; return a % b; }");
  expectParityBothProfiles(M, "INT64_MIN % -1");
}

TEST(EngineParityTest, OversizedShiftAmountsMatch) {
  // Shift counts are defined mod 64; sweep through and past the boundary,
  // including counts whose low six bits are zero.
  Module M = compileOrDie(
      "int main() { int a; int n; int s; s = 0;\n"
      "  for (n = 60; n < 200; n = n + 1) {\n"
      "    a = 5; s = s + (a << n); s = s + ((0 - a) >> n); }\n"
      "  return s; }");
  expectParityBothProfiles(M, "shift >= 64");
}

TEST(EngineParityTest, FpToIntSaturationVectorsMatch) {
  // NaN -> 0, +/-inf and out-of-range magnitudes clamp to INT64_MAX/MIN;
  // division produces the specials so no literal parsing is involved.
  Module M = compileOrDie(
      "float g;\n"
      "int main() { float z; float inf; float nan; int s;\n"
      "  z = 0.0; inf = 1.0 / z; nan = z / z; s = 0;\n"
      "  s = s + (int)nan;\n"
      "  s = s + (int)inf; s = s + (int)(0.0 - inf);\n"
      "  g = 9007199254740992.0;\n" // 2^53
      "  s = s + (int)(g * g);\n"   // far past INT64_MAX
      "  s = s + (int)(0.0 - g * g);\n"
      "  s = s + (int)1.9; s = s + (int)(0.0 - 1.9);\n"
      "  return s; }");
  expectParityBothProfiles(M, "fpToIntSat vectors");
}

// The step limit can strike anywhere, including between the two halves of a
// jit superinstruction; sweeping every cutoff through a loop body checks
// that each engine counts each half as a distinct step exactly like the
// reference engine does.
TEST(EngineParityTest, StepLimitSweepMatches) {
  Module M = compileOrDie(
      "int A[8]; float x;\n"
      "int main() { int i; int s; s = 0; x = 1.0;\n"
      "  for (i = 0; i < 1000000; i++) { A[i % 8] = s; s += A[(i + 1) % 8];\n"
      "    x = x * 1.0000001 + 0.5; }\n"
      "  return s; }");
  ProfileMeta Meta = ProfileMeta::build(M);
  for (uint64_t Limit = 1; Limit <= 120; ++Limit) {
    InterpOptions O;
    O.MaxSteps = Limit;
    expectParity(M, O, "step limit " + std::to_string(Limit));
    InterpOptions P = O;
    P.Profile = &Meta;
    expectParity(M, P, "profiled step limit " + std::to_string(Limit));
  }
}

// Every fused-template family the jit emitter recognizes, packed into one
// loop body: int cmp + branch, fp cmp + branch (including the NaN-parity
// Eq/Ne forms), LoadI folded into Add/Sub/Mul/CmpEq/CmpNe/CmpLt, LoadI and
// Copy folded into a block-closing Jmp, and FMul feeding FAdd/FSub in both
// operand orders. Sweeping the step limit across two-plus iterations lands
// the cutoff between the halves of each pair; both halves must count as
// distinct steps and the partial-iteration counters must match the switch
// engine exactly. The fast path runs each pair as two dispatches, so the
// comparison also pins the jit's fused templates against an unfused engine
// over the same cutoffs; the profiled leg repeats it with the jit's profile
// shims in place.
TEST(EngineParityTest, FusedPairStepLimitSweepMatches) {
  Module M = compileOrDie(
      "int A[4]; float x; float y;\n"
      "int main() { int i; int s; int t;\n"
      "  s = 0; x = 1.0; y = 0.5;\n"
      "  for (i = 0; i < 1000000; i++) {\n"
      "    s = s + 7; s = s - 3; t = s * 5;\n"
      "    if (t == 35) { s = 1; } else { s = t; }\n"
      "    if (s != 9) { s = s + 1; }\n"
      "    if (s < 4) { s = s + 2; }\n"
      "    x = x * 1.0000001 + y;\n"
      "    y = y - x * 0.0000001;\n"
      "    if (x > y) { s = s + 1; }\n"
      "    if (x == y) { s = s - 1; }\n"
      "    if (x != x) { s = 0; }\n"
      "    A[s % 4] = s; s = s + A[(i + 1) % 4];\n"
      "  }\n"
      "  return s; }");
  ProfileMeta Meta = ProfileMeta::build(M);
  for (uint64_t Limit = 1; Limit <= 160; ++Limit) {
    InterpOptions O;
    O.MaxSteps = Limit;
    expectParity(M, O, "fused-pair step limit " + std::to_string(Limit));
    InterpOptions P = O;
    P.Profile = &Meta;
    expectParity(M, P,
                 "profiled fused-pair step limit " + std::to_string(Limit));
  }
}

// -- Segment-granular budgets in the jit --------------------------------------
// Unprofiled jit code checks MaxSteps once per counting segment (a block,
// split at calls) and runs a per-step copy of the segment the limit falls
// inside; in between, its step counter runs ahead of the executed steps and
// every mid-segment fault site moves it back. These sweeps put the limit on
// each step of program prefixes, around the 64K deadline-poll boundaries,
// inside segments that end in calls, and inside segments whose memory
// access or division faults (the earlier fault must win), and compare every
// counter against the per-step engines.

/// Runs \p M on the fast path and on the jit under \p O; the jit must
/// match bit for bit.
void expectJitMatchesFastPath(const Module &M, InterpOptions O,
                              const std::string &What) {
  O.Engine = InterpEngine::FastPath;
  ExecResult Fp = interpret(M, O);
  O.Engine = InterpEngine::Jit;
  expectSameResult(Fp, interpret(M, O), What + " {jit}");
}

TEST(EngineParityTest, GeneratedProgramStepLimitPropertyMatches) {
  if (!jitSupported())
    GTEST_SKIP() << "no jit on this host/build";
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    // Generated programs stay far below 64K steps, so the boundary sweeps
    // run the generated main repeatedly from a wrapper until the run
    // crosses two of them.
    std::string Src = generateProgram(Seed);
    const size_t MainAt = Src.find("int main()");
    ASSERT_NE(MainAt, std::string::npos);
    Src.replace(MainAt, 10, "int gen_main()");
    Module Once;
    std::string Err;
    ASSERT_TRUE(compileToIL(Src + "int main() { return gen_main(); }\n",
                            Once, Err))
        << Err;
    InterpOptions Full;
    Full.Engine = InterpEngine::FastPath;
    const uint64_t PerRun = interpret(Once, Full).Counters.Total;
    ASSERT_GT(PerRun, 0u);
    Module Looped;
    ASSERT_TRUE(compileToIL(
        Src + "int main() { int k; int s; s = 0;\n"
              "  for (k = 0; k < " +
            std::to_string(2 * 65536 / PerRun + 2) +
            "; k++) s = s ^ gen_main();\n"
            "  return s; }\n",
        Looped, Err))
        << Err;

    const std::string What = "seed " + std::to_string(Seed);
    for (uint64_t L = 0; L <= 300; ++L) {
      InterpOptions O;
      O.MaxSteps = L;
      expectJitMatchesFastPath(Once, O, What + " step limit " +
                                            std::to_string(L));
      if (HasFailure())
        return;
    }
    for (uint64_t B : {uint64_t(65536), uint64_t(2 * 65536)})
      for (uint64_t L = B - 6; L <= B + 9; ++L) {
        InterpOptions O;
        O.MaxSteps = L;
        expectJitMatchesFastPath(Looped, O, What + " looped, step limit " +
                                                std::to_string(L));
        if (HasFailure())
          return;
      }
  }
}

TEST(EngineParityTest, StepLimitInsideCallSegmentsMatches) {
  // Every loop-body segment ends in a call, so each cutoff lands either in
  // a call-closed segment or on the call step itself.
  Module M = compileOrDie(
      "int g;\n"
      "int bump(int x) { g = g + x; return x + 1; }\n"
      "int main() { int i; int s; s = 0; g = 0;\n"
      "  for (i = 0; i < 1000; i++) {\n"
      "    s = s + i * 3; s = bump(s); s = s ^ i;\n"
      "    s = bump(s) - bump(i); }\n"
      "  return s + g; }");
  for (uint64_t Limit = 1; Limit <= 200; ++Limit) {
    InterpOptions O;
    O.MaxSteps = Limit;
    expectParity(M, O, "call-segment step limit " + std::to_string(Limit));
  }
}

TEST(EngineParityTest, StepLimitRacingMidSegmentFaultsMatches) {
  // In each program one loop-body segment faults in its middle on the
  // sixth iteration: a load through a pointer that turned null, a store
  // through it, a division by zero. Sweeping the limit up to and past the
  // fault puts it before, on and after the faulting step.
  const char *Srcs[] = {
      "int A[8]; int *p;\n"
      "int main() { int i; int s; s = 1; p = A;\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    s = s + i; s = s * 3; s = s + *p; s = s - i; A[i % 8] = s;\n"
      "    if (i == 4) p = (int *)0; }\n"
      "  return s; }",
      "int A[8]; int *p;\n"
      "int main() { int i; int s; s = 1; p = A;\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    s = s + i; s = s * 3; *p = s; s = s - i; A[i % 8] = s;\n"
      "    if (i == 4) p = (int *)0; }\n"
      "  return s; }",
      "int main() { int i; int s; s = 1;\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    s = s + i; s = s * 3; s = s + 100 / (5 - i); s = s - i; }\n"
      "  return s; }",
  };
  for (const char *Src : Srcs) {
    Module M = compileOrDie(Src);
    ExecResult Ref = interpret(M);
    ASSERT_FALSE(Ref.Ok) << Src;
    for (uint64_t Limit = 1; Limit <= Ref.Counters.Total + 3; ++Limit) {
      InterpOptions O;
      O.MaxSteps = Limit;
      expectParity(M, O, "faulting-segment step limit " +
                             std::to_string(Limit) + " in\n" + Src);
      if (HasFailure())
        return;
    }
  }
}

} // namespace
