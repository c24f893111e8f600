//===- perfbench/src/Served.cpp - Warm compile serving as a workload ------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `served_warm`: closed-loop `POST /compile` over loopback against an
/// in-process Server with 2 workers, from 2 keep-alive connections. Set-up
/// starts the server and primes all 28 (program, analysis) keys, so every
/// timed request is an artifact-cache hit and does no frontend, alias or
/// interpreter work. Each connection draws its request order from the
/// workload seed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "served/HttpClient.h"
#include "served/Server.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace rpcc;

namespace perfbench {
namespace {

constexpr unsigned Connections = 2;
constexpr unsigned Workers = 2;

struct Key {
  size_t Prog = 0;
  int Analysis = 0; ///< 0 = modref, 1 = points-to
  std::string Body; ///< the POST /compile request body
};

std::vector<Key> makeKeys(const NamedSources &Progs) {
  std::vector<Key> Keys;
  for (size_t P = 0; P != Progs.size(); ++P)
    for (int A = 0; A != 2; ++A)
      Keys.push_back({P, A,
                      "{\"source\":\"" + jsonEscape(Progs[P].second) +
                          "\",\"analysis\":\"" +
                          (A ? "points-to" : "modref") + "\"}"});
  return Keys;
}

std::string keyName(const Key &K, const std::vector<ProgramExpect> &E) {
  return E[K.Prog].Name + "/" + (K.Analysis ? "points-to" : "modref");
}

/// A started server with its event-loop thread, which captures `this`.
struct LiveServer {
  std::unique_ptr<Server> S;
  std::thread Loop;

  LiveServer() = default;
  LiveServer(const LiveServer &) = delete;
  LiveServer &operator=(const LiveServer &) = delete;

  bool start() {
    ServerOptions O;
    O.Workers = Workers;
    S = std::make_unique<Server>(O);
    if (!S->start())
      return false;
    Loop = std::thread([this] { S->run(); });
    return true;
  }
  ~LiveServer() {
    if (Loop.joinable()) {
      S->requestShutdown();
      Loop.join();
    }
  }
};

/// One checked response. Returns false and fills \p Why on any mismatch.
bool checkResponse(const HttpClientResponse &Resp, const Key &K,
                   const std::vector<ProgramExpect> &E, bool WantHit,
                   double &WallMs, double &StaticOps, std::string &Why) {
  if (Resp.Status != 200) {
    Why = "HTTP " + std::to_string(Resp.Status);
    return false;
  }
  JsonValue V;
  std::string Err;
  if (!parseJson(Resp.Body, V, Err)) {
    Why = "malformed envelope: " + Err;
    return false;
  }
  std::string Status = V.strOr("status", "", Err);
  std::string Cached = V.strOr("cached", "", Err);
  WallMs = V.numOr("wall_ms", -1, Err);
  StaticOps = V.numOr("static_ops", -1, Err);
  double Tags = V.numOr("promoted_tags", -1, Err);
  const CellExpect &W = E[K.Prog].With[K.Analysis];
  if (!Err.empty() || Status != "ok" || (WantHit && Cached != "hit") ||
      StaticOps != double(W.StaticOps) || Tags != double(W.PromotedTags) ||
      WallMs < 0) {
    Why = "envelope " + Resp.Body.substr(0, Resp.Body.find('\n')) +
          " (expected status ok" + (WantHit ? ", cached hit" : "") +
          ", static_ops " + std::to_string(W.StaticOps) + ", promoted_tags " +
          std::to_string(W.PromotedTags) + ")";
    return false;
  }
  return true;
}

/// Primes every key once through one connection.
bool prime(LiveServer &L, const std::vector<Key> &Keys,
           const std::vector<ProgramExpect> &E, std::string &Why) {
  HttpClient C;
  if (!C.connect("127.0.0.1", L.S->boundPort())) {
    Why = "cannot connect to the server";
    return false;
  }
  for (const Key &K : Keys) {
    HttpClientResponse Resp;
    double Wall = 0, Ops = 0;
    if (!C.request("POST", "/compile", K.Body, Resp) ||
        !checkResponse(Resp, K, E, false, Wall, Ops, Why)) {
      Why = "priming " + keyName(K, E) + ": " + Why;
      return false;
    }
  }
  return true;
}

/// Which analyzed-module slots of the resident artifacts are built; a
/// timed-phase difference means alias analysis ran during the phase.
std::vector<bool> analyzedSlots(LiveServer &L, const std::vector<Key> &Keys,
                                const NamedSources &P) {
  std::vector<bool> Built;
  for (const Key &K : Keys) {
    auto Art = L.S->cache().peek(ArtifactCache::contentKey(P[K.Prog].second));
    Built.push_back(Art && Art->AM[K.Analysis].M != nullptr);
  }
  return Built;
}

struct Sample {
  uint32_t Key = 0;
  bool Ok = false;
  double LatencyMs = 0, HandlerMs = 0, StaticOps = 0;
  double DoneMs = 0; ///< completion time since the phase started
};

/// Requests per second as the median over blocks of RateBlock consecutive
/// completions (across both connections) of the block's rate: the rate a
/// slow host phase of a few seconds cannot move, where requests/wall would
/// take its full hit.
constexpr size_t RateBlock = 500;
double completionRate(const std::vector<Sample> &Samples) {
  std::vector<double> Done;
  for (const Sample &S : Samples)
    Done.push_back(S.DoneMs);
  std::sort(Done.begin(), Done.end());
  std::vector<double> Gaps;
  for (size_t I = 1; I < Done.size(); ++I)
    Gaps.push_back(Done[I] - Done[I - 1]);
  return blockRate(Gaps, RateBlock);
}

/// Runs the closed loop for \p Ms milliseconds from every connection.
std::vector<Sample> drive(LiveServer &L, const std::vector<Key> &Keys,
                          const std::vector<ProgramExpect> &E, uint64_t Seed,
                          double Ms) {
  std::vector<std::vector<Sample>> Per(Connections);
  std::vector<std::string> Errors(Connections);
  std::atomic<bool> Go{false};
  double Start = 0, Deadline = 0;
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != Connections; ++C)
    Clients.emplace_back([&, C] {
      HttpClient Cl;
      if (!Cl.connect("127.0.0.1", L.S->boundPort())) {
        Errors[C] = "connection " + std::to_string(C) + " cannot connect";
        return;
      }
      uint64_t Rng = mix64(Seed * 7919 + C);
      while (!Go.load())
        std::this_thread::yield();
      while (nowMs() < Deadline) {
        Rng = mix64(Rng);
        uint32_t I = static_cast<uint32_t>(Rng % Keys.size());
        HttpClientResponse Resp;
        double T0 = nowMs();
        Status St = Cl.request("POST", "/compile", Keys[I].Body, Resp);
        double T1 = nowMs();
        Sample S{I, bool(St), T1 - T0, 0, 0, T1 - Start};
        std::string Why = St.message();
        if (S.Ok)
          S.Ok = checkResponse(Resp, Keys[I], E, true, S.HandlerMs,
                               S.StaticOps, Why);
        if (!S.Ok)
          Errors[C] += "served_warm request " + keyName(Keys[I], E) +
                       " on connection " + std::to_string(C) + ": " + Why +
                       "\n";
        Per[C].push_back(S);
      }
    });
  Start = nowMs();
  Deadline = Start + Ms;
  Go.store(true);
  for (std::thread &T : Clients)
    T.join();
  std::vector<Sample> All;
  for (unsigned C = 0; C != Connections; ++C) {
    All.insert(All.end(), Per[C].begin(), Per[C].end());
    // Failed requests are counted from the samples; print what failed.
    if (!Errors[C].empty())
      std::fprintf(stderr, "perfbench: FAILED %s", Errors[C].c_str());
  }
  return All;
}

} // namespace

double setupServedWarm(const std::string &Root) {
  auto Progs = loadSuitePrograms(Root);
  std::vector<ProgramExpect> E;
  if (Progs.empty() || !loadSuiteExpect(Root, E))
    return -1;
  LiveServer L;
  std::string Why;
  if (!L.start() || !prime(L, makeKeys(Progs), E, Why)) {
    std::fprintf(stderr, "perfbench: served_warm set-up: %s\n", Why.c_str());
    return -1;
  }
  return nowMs();
}

Report runServedWarm(const RunArgs &A) {
  // A set-up probe would compete with the timed phase for the 4 cores, so
  // half are taken before it and half after, not in between.
  constexpr int SetupProbes = 8;
  Report R;
  for (int I = 0; I != SetupProbes / 2; ++I)
    sampleSetup(A, R);
  R.Engine = interpEngineName(DefaultInterpEngine);
  auto Progs = loadSuitePrograms(A.Root);
  std::vector<ProgramExpect> E;
  if (Progs.empty() || !loadSuiteExpect(A.Root, E)) {
    R.fail("served_warm: cannot load programs or expected outputs");
    return R;
  }
  std::vector<Key> Keys = makeKeys(Progs);
  LiveServer L;
  std::string Why;
  if (!L.start() || !prime(L, Keys, E, Why)) {
    R.fail("served_warm set-up: " + Why);
    return R;
  }

  double Budget = A.Seconds * 1e3;
  double PhaseMs = A.Trace ? Budget / 2 : Budget;
  std::vector<Sample> Untraced = drive(L, Keys, E, A.Seed, PhaseMs);
  std::vector<Sample> Traced;
  RegistryReading D;
  std::vector<bool> SlotsBefore, SlotsAfter;
  if (A.Trace) {
    SlotsBefore = analyzedSlots(L, Keys, Progs);
    RegistryReading R0 = RegistryReading::now();
    Traced = drive(L, Keys, E, A.Seed + 0x5eed, PhaseMs);
    D = RegistryReading::now() - R0;
    SlotsAfter = analyzedSlots(L, Keys, Progs);
  }
  for (int I = 0; I != SetupProbes / 2; ++I)
    sampleSetup(A, R);

  std::vector<double> KeyReqs(Keys.size(), 0);
  double StaticOps = 0;
  for (const std::vector<Sample> *Phase : {&Untraced, &Traced})
    for (const Sample &S : *Phase) {
      ++R.Attempted;
      R.Failed += !S.Ok;
      R.OpMs.push_back(S.LatencyMs);
      if (Phase == &Untraced) {
        KeyReqs[S.Key] += 1;
        StaticOps += S.StaticOps;
      }
    }
  R.OpsPerSec = completionRate(Untraced);
  double N = double(Untraced.size());
  R.CodeOps = N > 0 ? StaticOps / N : 0;
  std::vector<double> UntracedMs;
  for (const Sample &S : Untraced)
    UntracedMs.push_back(S.LatencyMs);
  R.OpP50Ms = median(UntracedMs);

  // Every key compiled once more through the stage functions, outside the
  // timed phase: its dynamic counts (the served artifacts never execute)
  // and, for traced runs, the suffix's pass breakdown.
  std::vector<TimingReport> KeyTiming(Keys.size());
  std::vector<StageCounts> KeyCounts(Keys.size());
  double Dyn[3] = {0, 0, 0};
  for (size_t P = 0; P != Progs.size(); ++P) {
    FrontendArtifact FA = runFrontend(Progs[P].second);
    for (int An = 0; An != 2; ++An) {
      size_t KI = P * 2 + An;
      CompilerConfig Cfg;
      Cfg.Analysis = An ? AnalysisKind::PointsTo : AnalysisKind::ModRef;
      AnalyzedModule AM = analyzeFrontend(FA, Cfg.Analysis);
      CompileOutput CO = compileSuffix(AM, Cfg);
      ExecResult X = CO.Ok ? interpret(*CO.M) : ExecResult();
      const CellExpect &W = E[P].With[An];
      if (!X.Ok || X.Counters.Total != W.Ops || X.Counters.Loads != W.Loads ||
          X.Counters.Stores != W.Stores) {
        R.fail("served_warm key " + keyName(Keys[KI], E) +
               ": compiled artifact does not run to the expected counts");
        continue;
      }
      Dyn[0] += KeyReqs[KI] * double(X.Counters.Total);
      Dyn[1] += KeyReqs[KI] * double(X.Counters.Loads);
      Dyn[2] += KeyReqs[KI] * double(X.Counters.Stores);
      if (!A.Trace)
        continue;
      // The handler's suffix, timed: median-of-3 pass report per key.
      Cfg.CollectTiming = true;
      std::vector<TimingReport> Reps;
      for (int Rep = 0; Rep != 3; ++Rep) {
        CompileOutput T = compileSuffix(AM, Cfg);
        if (Rep == 0)
          KeyCounts[KI].add(T.Stats);
        Reps.push_back(std::move(T.Timing));
      }
      std::sort(Reps.begin(), Reps.end(),
                [](const TimingReport &X, const TimingReport &Y) {
                  return X.SuffixMillis < Y.SuffixMillis;
                });
      KeyTiming[KI] = std::move(Reps[1]);
    }
  }
  if (N > 0) {
    R.DynOps = Dyn[0] / N;
    R.DynLoads = Dyn[1] / N;
    R.DynStores = Dyn[2] / N;
  }

  if (A.Trace && !Traced.empty()) {
    double TN = double(Traced.size());
    std::vector<double> Lat, Count(Keys.size(), 0);
    double Handler = 0, Transport = 0;
    for (const Sample &S : Traced) {
      Lat.push_back(S.LatencyMs);
      Handler += S.HandlerMs;
      Transport += S.LatencyMs - S.HandlerMs;
      Count[S.Key] += 1;
    }
    // The traced phase's request mix, weighting each key's suffix report.
    TimingReport T;
    StageCounts C;
    for (size_t K = 0; K != Keys.size(); ++K) {
      for (double I = 0; I < Count[K]; ++I)
        T.merge(KeyTiming[K]);
      C.addScaled(KeyCounts[K], Count[K]);
    }
    // Frontend and alias work in the timed phase, read from the server
    // side: artifact builds (misses, collision bypasses) and analysis
    // slots that were not built before the phase.
    double LazyAnalyses = 0;
    for (size_t K = 0; K != SlotsBefore.size(); ++K)
      LazyAnalyses += SlotsAfter[K] && !SlotsBefore[K];
    T.CacheHits = static_cast<uint64_t>(D.ServedHits);
    T.CacheMisses = static_cast<uint64_t>(D.ServedMisses + D.ServedBypass);
    R.layer("op.ms", (Handler + Transport) / TN, "ms");
    addPipelineLayers(R, T, D, C, TN);
    // The suffix reports carry no prefix calls; the call counts are the
    // server-side observation of the timed phase.
    for (LayerRow &Row : R.Layers) {
      if (Row.Name == "frontend.calls")
        Row.Value = D.ServedMisses + D.ServedBypass;
      if (Row.Name == "alias.calls")
        Row.Value = D.ServedMisses + D.ServedBypass + LazyAnalyses;
    }
    if (D.ServedMisses + D.ServedBypass + LazyAnalyses != 0)
      R.fail("served_warm traced phase did frontend/alias work (" +
             std::to_string(D.ServedMisses + D.ServedBypass) +
             " artifact builds, " + std::to_string(LazyAnalyses) +
             " lazy analyses)");
    TailStat Tail = tailStat(Lat);
    R.layer("served.handler_ms", Handler / TN, "ms");
    R.layer("served.transport_ms", Transport / TN, "ms");
    R.layer("served.cache_hits", D.ServedHits / TN, "count");
    R.layer("served.cache_misses", D.ServedMisses / TN, "count");
    R.layer("served.p99_ms", Tail.Percentile == 99 ? Tail.Value : 0, "ms");
    R.layer("served.p99_samples_beyond", double(Tail.Beyond), "count");
    R.layer("trace.overhead", completionRate(Traced) / R.OpsPerSec,
            "ratio");
  }
  return R;
}

} // namespace perfbench
