//===- bench/ServedThroughput.cpp - rpserved sustained throughput ---------===//
//
// Measures the serving stack end to end over real loopback sockets: an
// in-process Server (the same class rpserved wraps) is hammered by N
// client threads, each holding one keep-alive connection and issuing M
// POST /compile requests back to back. Three scenarios isolate what the
// artifact cache and coalescing buy:
//
//   fork   --fork-per-request baseline: every request forks a child that
//          compiles from scratch — the process model rpserved replaces
//   cold   cache enabled but every request is a unique source (a nonce
//          comment defeats the key), so every request pays a full build
//          on a pool worker
//   warm   the steady state: the corpus is primed first, every request is
//          a cache hit sharing the immutable compiled prefix
//
// Each scenario runs at every --connections count (default 1,4,16). The
// headline number is warm req/s over fork req/s at the highest connection
// count; --min-speedup turns it into a perf gate for ctest.
//
//   served_throughput [--requests=N] [--connections=a,b,...] [--workers=N]
//                     [--json=FILE] [--min-speedup=X]
//
// The table goes to stdout; raw numbers are written as JSON (default
// BENCH_served.json):
//   {"requests_per_conn":N,"workers":W,"results":[{"scenario":..,
//    "connections":..,"requests":..,"wall_ms":..,"rps":..,"p50_us":..,
//    "p99_us":..}],"headline_connections":..,"warm_rps":..,"fork_rps":..,
//    "speedup_warm_vs_fork":..}
//
// Run from a Release build; sanitizers distort fork cost badly.
//
//===----------------------------------------------------------------------===//

#include "driver/PassTiming.h"
#include "driver/SuiteRunner.h"
#include "served/HttpClient.h"
#include "served/Server.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace rpcc;

namespace {

struct Scenario {
  std::string Name;
  unsigned Connections = 0;
  size_t Requests = 0;
  double WallMs = 0;
  double Rps = 0;
  double P50Us = 0;
  double P99Us = 0;
};

/// The /compile body for corpus program \p K. Alternating analysis kinds
/// double the distinct artifact count; \p Nonce (cold scenario) makes the
/// source unique so every request misses the cache.
std::string compileBody(const std::vector<std::string> &Corpus, size_t K,
                        uint64_t Nonce) {
  std::string Src = Corpus[K % Corpus.size()];
  if (Nonce)
    Src += "\n// nonce " + std::to_string(Nonce) + "\n";
  std::string Body = "{\"source\":\"" + jsonEscape(Src) + "\"";
  Body += ",\"analysis\":\"";
  Body += (K & 1) ? "points-to" : "modref";
  Body += "\"}";
  return Body;
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[Idx];
}

/// Runs one scenario: \p Conns client threads x \p Reqs requests against a
/// freshly started server. Exits the process on any failed request — a
/// benchmark over errors measures nothing.
Scenario runScenario(const std::string &Name, bool ForkPerRequest,
                     bool UniqueSources, bool Prime, unsigned Conns,
                     size_t Reqs, unsigned Workers,
                     const std::vector<std::string> &Corpus) {
  ServerOptions SO;
  SO.Workers = Workers;
  SO.ForkPerRequest = ForkPerRequest;
  SO.MaxConnections = Conns + 8;
  Server Srv(SO);
  Status St = Srv.start();
  if (!St) {
    std::fprintf(stderr, "error: server start failed: %s\n",
                 St.message().c_str());
    std::exit(1);
  }
  std::thread Loop([&] { Srv.run(); });

  auto postOne = [&](HttpClient &C, size_t K, uint64_t Nonce) {
    HttpClientResponse R;
    Status S = C.request("POST", "/compile", compileBody(Corpus, K, Nonce), R);
    if (!S || R.Status != 200 ||
        R.Body.find("\"status\":\"ok\"") == std::string::npos) {
      std::fprintf(stderr, "error: %s: request failed: %s (HTTP %d) %s\n",
                   Name.c_str(), S ? "bad response" : S.message().c_str(),
                   R.Status, R.Body.substr(0, 200).c_str());
      std::exit(1);
    }
  };

  if (Prime) {
    // Touch every (program, analysis) pair once so the timed phase is all
    // hits. 2x the corpus covers both analysis parities.
    HttpClient C;
    if (!C.connect("127.0.0.1", Srv.boundPort())) {
      std::fprintf(stderr, "error: prime connect failed\n");
      std::exit(1);
    }
    for (size_t K = 0; K != Corpus.size() * 2; ++K)
      postOne(C, K, 0);
  }

  std::atomic<uint64_t> NonceGen{1};
  std::vector<std::vector<double>> LatsPerConn(Conns);
  std::vector<std::thread> Threads;
  Threads.reserve(Conns);

  double T0 = timingNowMs();
  for (unsigned T = 0; T != Conns; ++T) {
    Threads.emplace_back([&, T] {
      HttpClient C;
      if (!C.connect("127.0.0.1", Srv.boundPort())) {
        std::fprintf(stderr, "error: connect failed\n");
        std::exit(1);
      }
      std::vector<double> &Lats = LatsPerConn[T];
      Lats.reserve(Reqs);
      for (size_t R = 0; R != Reqs; ++R) {
        uint64_t Nonce = UniqueSources
                             ? NonceGen.fetch_add(1, std::memory_order_relaxed)
                             : 0;
        double S0 = timingNowMs();
        postOne(C, T * 7919 + R, Nonce);
        Lats.push_back((timingNowMs() - S0) * 1000.0); // us
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  double WallMs = timingNowMs() - T0;

  Srv.requestShutdown();
  Loop.join();

  std::vector<double> All;
  for (const std::vector<double> &L : LatsPerConn)
    All.insert(All.end(), L.begin(), L.end());
  std::sort(All.begin(), All.end());

  Scenario Sc;
  Sc.Name = Name;
  Sc.Connections = Conns;
  Sc.Requests = All.size();
  Sc.WallMs = WallMs;
  Sc.Rps = WallMs > 0 ? static_cast<double>(All.size()) / (WallMs / 1000.0) : 0;
  Sc.P50Us = percentile(All, 0.50);
  Sc.P99Us = percentile(All, 0.99);
  return Sc;
}

} // namespace

int main(int argc, char **argv) {
  size_t Reqs = 40;
  unsigned Workers = 8;
  double MinSpeedup = 0;
  std::string JsonFile = "BENCH_served.json";
  std::vector<unsigned> ConnCounts = {1, 4, 16};

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strncmp(A, "--requests=", 11) == 0) {
      if (!parseUnsigned(A + 11, Reqs) || Reqs == 0) {
        std::fprintf(stderr, "error: bad --requests value '%s'\n", A + 11);
        return 2;
      }
    } else if (std::strncmp(A, "--workers=", 10) == 0) {
      if (!parseUnsigned(A + 10, Workers) || Workers == 0) {
        std::fprintf(stderr, "error: bad --workers value '%s'\n", A + 10);
        return 2;
      }
    } else if (std::strncmp(A, "--json=", 7) == 0) {
      JsonFile = A + 7;
    } else if (std::strncmp(A, "--min-speedup=", 14) == 0) {
      if (!parseDouble(A + 14, MinSpeedup) || MinSpeedup <= 0) {
        std::fprintf(stderr, "error: bad --min-speedup value '%s'\n", A + 14);
        return 2;
      }
    } else if (std::strncmp(A, "--connections=", 14) == 0) {
      ConnCounts.clear();
      std::string List = A + 14;
      size_t Pos = 0;
      while (Pos < List.size()) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        unsigned V = 0;
        if (!parseUnsigned(List.substr(Pos, Comma - Pos).c_str(), V) ||
            V == 0) {
          std::fprintf(stderr, "error: bad --connections value\n");
          return 2;
        }
        ConnCounts.push_back(V);
        Pos = Comma + 1;
      }
      if (ConnCounts.empty()) {
        std::fprintf(stderr, "error: bad --connections value\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: served_throughput [--requests=N] "
                   "[--connections=a,b,...] [--workers=N] [--json=FILE] "
                   "[--min-speedup=X]\n");
      return 2;
    }
  }

  std::vector<std::string> Corpus;
  for (const std::string &Name : benchProgramNames())
    Corpus.push_back(loadBenchProgram(Name));
  if (Corpus.empty()) {
    std::fprintf(stderr, "error: empty bench corpus\n");
    return 1;
  }

  std::vector<Scenario> Results;
  TextTable T({"scenario", "conns", "requests", "wall ms", "req/s", "p50 us",
               "p99 us"});
  for (unsigned Conns : ConnCounts) {
    // fork first: its numbers are the baseline the table reads against.
    Results.push_back(runScenario("fork", /*ForkPerRequest=*/true,
                                  /*UniqueSources=*/false, /*Prime=*/false,
                                  Conns, Reqs, Workers, Corpus));
    Results.push_back(runScenario("cold", /*ForkPerRequest=*/false,
                                  /*UniqueSources=*/true, /*Prime=*/false,
                                  Conns, Reqs, Workers, Corpus));
    Results.push_back(runScenario("warm", /*ForkPerRequest=*/false,
                                  /*UniqueSources=*/false, /*Prime=*/true,
                                  Conns, Reqs, Workers, Corpus));
  }
  for (const Scenario &S : Results)
    T.addRow({S.Name, std::to_string(S.Connections),
              std::to_string(S.Requests), fixed(S.WallMs, 1), fixed(S.Rps, 1),
              fixed(S.P50Us, 1), fixed(S.P99Us, 1)});
  std::fputs(T.render().c_str(), stdout);

  unsigned Headline = *std::max_element(ConnCounts.begin(), ConnCounts.end());
  double WarmRps = 0, ForkRps = 0;
  for (const Scenario &S : Results) {
    if (S.Connections != Headline)
      continue;
    if (S.Name == "warm")
      WarmRps = S.Rps;
    else if (S.Name == "fork")
      ForkRps = S.Rps;
  }
  double Speedup = ForkRps > 0 ? WarmRps / ForkRps : 0;
  std::printf("warm vs fork at %u connections: %s req/s vs %s req/s "
              "(%sx)\n",
              Headline, fixed(WarmRps, 1).c_str(), fixed(ForkRps, 1).c_str(),
              fixed(Speedup, 2).c_str());

  std::string Json;
  Json += "{\"requests_per_conn\":" + std::to_string(Reqs);
  Json += ",\"workers\":" + std::to_string(Workers);
  Json += ",\"results\":[";
  for (size_t I = 0; I != Results.size(); ++I) {
    const Scenario &S = Results[I];
    if (I)
      Json += ",";
    Json += "{\"scenario\":\"" + jsonEscape(S.Name) + "\"";
    Json += ",\"connections\":" + std::to_string(S.Connections);
    Json += ",\"requests\":" + std::to_string(S.Requests);
    Json += ",\"wall_ms\":" + fixed(S.WallMs, 3);
    Json += ",\"rps\":" + fixed(S.Rps, 3);
    Json += ",\"p50_us\":" + fixed(S.P50Us, 3);
    Json += ",\"p99_us\":" + fixed(S.P99Us, 3) + "}";
  }
  Json += "],\"headline_connections\":" + std::to_string(Headline);
  Json += ",\"warm_rps\":" + fixed(WarmRps, 3);
  Json += ",\"fork_rps\":" + fixed(ForkRps, 3);
  Json += ",\"speedup_warm_vs_fork\":" + fixed(Speedup, 3);
  Json += "}\n";
  std::ofstream JOut(JsonFile, std::ios::binary);
  if (!JOut) {
    std::fprintf(stderr, "error: cannot write %s\n", JsonFile.c_str());
    return 4;
  }
  JOut << Json;

  if (MinSpeedup > 0 && Speedup < MinSpeedup) {
    std::fprintf(stderr,
                 "error: warm-vs-fork speedup %.3f below required "
                 "minimum %.3f\n",
                 Speedup, MinSpeedup);
    return 5;
  }
  return 0;
}
