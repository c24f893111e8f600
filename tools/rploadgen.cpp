//===- tools/rploadgen.cpp - rpserved load generator ----------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives an rpserved instance with N concurrent keep-alive connections,
/// each sending M requests over a mixed MiniC corpus, and reports
/// throughput plus a log2 latency histogram with p50/p99. Two extra duties
/// make it the harness for the served ctest scripts:
///
///  - `--server=PATH` spawns rpserved itself (ephemeral port parsed from
///    its "listening on" line), SIGTERMs it after the run, and requires a
///    clean drain (exit 0) — so every loadgen-based test doubles as a
///    graceful-shutdown test.
///
///  - `--corpus=hostile` sends /run requests with injected crash/hang/oom
///    worker faults; `--expect-outcomes` then scrapes /metrics and demands
///    that the daemon's `rpcc_jobs_outcome_total` counters equal what was
///    sent — the daemon must classify every fault, stay alive, and keep
///    honest books.
///
//===----------------------------------------------------------------------===//

#include "served/HttpClient.h"

#include "driver/PassTiming.h"
#include "obs/Metrics.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace rpcc;

namespace {

void printUsage() {
  std::fputs(
      "usage: rploadgen [options]\n"
      "\n"
      "options:\n"
      "  --host=ADDR           target host (default 127.0.0.1)\n"
      "  --port=N              target port (required unless --server)\n"
      "  --server=PATH         spawn this rpserved binary on an ephemeral\n"
      "                        port, drive it, SIGTERM it, require exit 0\n"
      "  --server-arg=A        extra argument for --server (repeatable)\n"
      "  --connections=N       concurrent keep-alive connections "
      "(default 4)\n"
      "  --requests=M          requests per connection (default 25)\n"
      "  --corpus=C            clean   - valid /compile bodies (default)\n"
      "                        mixed   - /compile + /run + compile errors\n"
      "                        hostile - /run with injected crash/hang/oom\n"
      "  --expect-outcomes     scrape /metrics after the run and require\n"
      "                        jobs_outcome counters to equal what was "
      "sent\n"
      "  --json=FILE           write a JSON summary\n"
      "  --help                this text\n"
      "\n"
      "exit codes: 0 all requests answered (and checks passed), 1 failures,\n"
      "2 usage error, 3 bad option value, 4 could not spawn/reach server\n",
      stderr);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

/// A handful of distinct MiniC programs so the cache sees several keys, not
/// one. Program 0 is also what the hostile corpus runs (the fault fires in
/// the worker before the program matters).
const char *corpusProgram(unsigned I) {
  static const char *Programs[] = {
      "int acc;\n"
      "int main() {\n"
      "  int i;\n"
      "  for (i = 0; i < 1000; i++) acc = acc + i;\n"
      "  print_int(acc);\n"
      "  return 0;\n"
      "}\n",
      "int a[64];\n"
      "int main() {\n"
      "  int i; int s;\n"
      "  s = 0;\n"
      "  for (i = 0; i < 64; i++) a[i] = i * 3;\n"
      "  for (i = 0; i < 64; i++) s = s + a[i];\n"
      "  print_int(s);\n"
      "  return 0;\n"
      "}\n",
      "int g;\n"
      "int bump(int n) { g = g + n; return g; }\n"
      "int main() {\n"
      "  int i;\n"
      "  for (i = 1; i <= 50; i++) bump(i);\n"
      "  print_int(g);\n"
      "  return 0;\n"
      "}\n",
      "int main() {\n"
      "  int n; int f; \n"
      "  n = 10; f = 1;\n"
      "  while (n > 1) { f = f * n; n = n - 1; }\n"
      "  print_int(f);\n"
      "  return 0;\n"
      "}\n",
  };
  return Programs[I % (sizeof(Programs) / sizeof(Programs[0]))];
}

/// Deliberately broken source for the mixed corpus: a deterministic
/// compile error the daemon must answer (status "error"), not die on.
const char *kBrokenProgram = "int main() { return undeclared_name; }\n";

enum class Corpus { Clean, Mixed, Hostile };

struct RequestPlan {
  std::string Path; ///< "/compile" or "/run"
  std::string Body;
  /// For hostile /run requests: the sandbox status the fault must classify
  /// as ("crash", "timeout", "oom"); "" = expect "ok" or "error".
  std::string ExpectOutcome;
};

RequestPlan planRequest(Corpus C, unsigned Conn, unsigned Seq) {
  unsigned K = Conn * 7919 + Seq; // decorrelate connections
  RequestPlan P;
  switch (C) {
  case Corpus::Clean:
    P.Path = "/compile";
    P.Body = std::string("{\"source\":\"") + jsonEscape(corpusProgram(K)) +
             "\",\"analysis\":\"" +
             (K % 2 ? "points-to" : "modref") + "\"}";
    return P;
  case Corpus::Mixed:
    switch (K % 4) {
    case 0:
    case 1:
      P.Path = "/compile";
      P.Body = std::string("{\"source\":\"") + jsonEscape(corpusProgram(K)) +
               "\"}";
      return P;
    case 2:
      P.Path = "/run";
      P.Body = std::string("{\"source\":\"") + jsonEscape(corpusProgram(K)) +
               "\"}";
      P.ExpectOutcome = "ok";
      return P;
    default:
      P.Path = "/compile";
      P.Body = std::string("{\"source\":\"") + jsonEscape(kBrokenProgram) +
               "\"}";
      return P;
    }
  case Corpus::Hostile: {
    static const char *Faults[] = {"crash", "hang", "oom"};
    static const char *Statuses[] = {"crash", "timeout", "oom"};
    unsigned F = K % 3;
    P.Path = "/run";
    P.Body = std::string("{\"source\":\"") + jsonEscape(corpusProgram(0)) +
             "\",\"inject\":\"" + Faults[F] + "\"}";
    P.ExpectOutcome = Statuses[F];
    return P;
  }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Spawning rpserved
//===----------------------------------------------------------------------===//

struct SpawnedServer {
  pid_t Pid = -1;
  int StdoutFd = -1;
  uint16_t Port = 0;

  /// SIGTERMs the child and returns its exit code (-1 on reaping trouble).
  int shutdown() {
    if (Pid < 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int WStatus = 0;
    if (::waitpid(Pid, &WStatus, 0) != Pid)
      return -1;
    if (StdoutFd >= 0)
      ::close(StdoutFd);
    Pid = -1;
    return WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : 128 + WTERMSIG(WStatus);
  }
};

bool spawnServer(const std::string &Path,
                 const std::vector<std::string> &ExtraArgs,
                 SpawnedServer &Out) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return false;
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    return false;
  }
  if (Pid == 0) {
    ::dup2(Pipe[1], 1);
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Path.c_str()));
    std::string PortArg = "--port=0";
    Argv.push_back(const_cast<char *>(PortArg.c_str()));
    for (const std::string &A : ExtraArgs)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    ::execv(Path.c_str(), Argv.data());
    _exit(127);
  }
  ::close(Pipe[1]);

  // Read the child's stdout until a complete "listening on HOST:PORT" line.
  std::string Line;
  char C;
  for (;;) {
    ssize_t N = ::read(Pipe[0], &C, 1);
    if (N <= 0) {
      ::close(Pipe[0]);
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      return false;
    }
    if (C != '\n') {
      Line += C;
      continue;
    }
    if (Line.find("listening on ") != std::string::npos)
      break;
    Line.clear();
  }
  size_t Colon = Line.rfind(':');
  unsigned Port = 0;
  if (Colon == std::string::npos ||
      !parseUnsigned(Line.c_str() + Colon + 1, Port) || Port == 0 ||
      Port > 65535) {
    ::close(Pipe[0]);
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
    return false;
  }
  Out.Pid = Pid;
  Out.StdoutFd = Pipe[0];
  Out.Port = static_cast<uint16_t>(Port);
  return true;
}

//===----------------------------------------------------------------------===//
// Metrics scraping (--expect-outcomes)
//===----------------------------------------------------------------------===//

/// Extracts `rpcc_jobs_outcome{status="<S>"} N` from a Prometheus
/// exposition dump; 0 when the series is absent.
uint64_t promOutcome(const std::string &Prom, const std::string &StatusName) {
  std::string Needle = "rpcc_jobs_outcome{status=\"" + StatusName + "\"} ";
  size_t Pos = Prom.find(Needle);
  if (Pos == std::string::npos)
    return 0;
  return std::strtoull(Prom.c_str() + Pos + Needle.size(), nullptr, 10);
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

struct WorkerResult {
  std::vector<uint64_t> LatenciesUs;
  uint64_t Answered = 0;     ///< valid HTTP responses
  uint64_t Mismatched = 0;   ///< response status != expected outcome
  uint64_t TransportErr = 0; ///< connect/send/recv failures
  /// Counts of /run envelope statuses actually received, for
  /// --expect-outcomes bookkeeping.
  uint64_t SentCrash = 0, SentHang = 0, SentOom = 0;
};

/// The envelope's top-level "status" string; empty when the body does not
/// parse or carries none, which classifies as a mismatch either way.
std::string envelopeStatus(const std::string &Body) {
  JsonValue V;
  std::string Err, Status;
  if (parseJson(Body, V, Err))
    Status = V.strOr("status", "", Err);
  return Status;
}

void runWorker(const std::string &Host, uint16_t Port, Corpus C,
               unsigned Conn, unsigned Requests, WorkerResult &R) {
  HttpClient Client;
  if (!Client.connect(Host, Port, 60.0)) {
    R.TransportErr += Requests;
    return;
  }
  for (unsigned Seq = 0; Seq != Requests; ++Seq) {
    RequestPlan P = planRequest(C, Conn, Seq);
    if (P.ExpectOutcome == "crash")
      ++R.SentCrash;
    else if (P.ExpectOutcome == "timeout")
      ++R.SentHang;
    else if (P.ExpectOutcome == "oom")
      ++R.SentOom;
    uint64_t T0 = metricsNowUs();
    HttpClientResponse Resp;
    Status S = Client.request("POST", P.Path, P.Body, Resp);
    if (!S) {
      ++R.TransportErr;
      continue;
    }
    R.LatenciesUs.push_back(metricsNowUs() - T0);
    ++R.Answered;
    std::string Got = envelopeStatus(Resp.Body);
    bool Bad = Resp.Status != 200;
    if (!Bad && !P.ExpectOutcome.empty())
      Bad = Got != P.ExpectOutcome;
    else if (!Bad)
      Bad = Got != "ok" && Got != "error";
    if (Bad) {
      ++R.Mismatched;
      std::fprintf(stderr,
                   "rploadgen: mismatch: %s expected '%s' got HTTP %d "
                   "status '%s' body %.200s\n",
                   P.Path.c_str(),
                   P.ExpectOutcome.empty() ? "ok|error"
                                           : P.ExpectOutcome.c_str(),
                   Resp.Status, Got.c_str(), Resp.Body.c_str());
    }
  }
}

uint64_t percentile(std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Idx = static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1));
  return Sorted[Idx];
}

} // namespace

int main(int argc, char **argv) {
  std::string Host = "127.0.0.1";
  unsigned Port = 0;
  std::string ServerPath;
  std::vector<std::string> ServerArgs;
  unsigned Connections = 4, Requests = 25;
  Corpus C = Corpus::Clean;
  bool ExpectOutcomes = false;
  std::string JsonFile;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    std::string Val;
    int VF;
    auto BadValue = [&](const char *Flag) {
      std::fprintf(stderr, "rploadgen: bad value for %s\n", Flag);
      return 3;
    };
    if (std::strcmp(A, "--help") == 0 || std::strcmp(A, "-h") == 0) {
      printUsage();
      return 0;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--host", Val)) != 0) {
      if (VF < 0)
        return BadValue("--host");
      Host = Val;
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--port", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), Port) || Port == 0 ||
          Port > 65535)
        return BadValue("--port");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--server", Val)) != 0) {
      if (VF < 0)
        return BadValue("--server");
      ServerPath = Val;
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--server-arg", Val)) != 0) {
      if (VF < 0)
        return BadValue("--server-arg");
      ServerArgs.push_back(Val);
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--connections", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), Connections) ||
          Connections == 0 || Connections > 512)
        return BadValue("--connections");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--requests", Val)) != 0) {
      if (VF < 0 || !parseUnsigned(Val.c_str(), Requests) || Requests == 0)
        return BadValue("--requests");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--corpus", Val)) != 0) {
      if (VF < 0)
        return BadValue("--corpus");
      if (Val == "clean")
        C = Corpus::Clean;
      else if (Val == "mixed")
        C = Corpus::Mixed;
      else if (Val == "hostile")
        C = Corpus::Hostile;
      else
        return BadValue("--corpus");
      continue;
    }
    if ((VF = matchValueFlag(argc, argv, I, "--json", Val)) != 0) {
      if (VF < 0)
        return BadValue("--json");
      JsonFile = Val;
      continue;
    }
    if (std::strcmp(A, "--expect-outcomes") == 0) {
      ExpectOutcomes = true;
      continue;
    }
    std::fprintf(stderr, "rploadgen: unknown option '%s'\n", A);
    printUsage();
    return 2;
  }

  SpawnedServer Spawned;
  if (!ServerPath.empty()) {
    if (!spawnServer(ServerPath, ServerArgs, Spawned)) {
      std::fprintf(stderr, "rploadgen: could not spawn %s\n",
                   ServerPath.c_str());
      return 4;
    }
    Port = Spawned.Port;
    std::fprintf(stderr, "rploadgen: spawned rpserved pid %d on port %u\n",
                 static_cast<int>(Spawned.Pid), Port);
  }
  if (Port == 0) {
    std::fputs("rploadgen: need --port or --server\n", stderr);
    return 2;
  }

  std::vector<WorkerResult> Results(Connections);
  double T0 = timingNowMs();
  {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != Connections; ++I)
      Threads.emplace_back(runWorker, Host, static_cast<uint16_t>(Port), C, I,
                           Requests, std::ref(Results[I]));
    for (std::thread &T : Threads)
      T.join();
  }
  double WallMs = timingNowMs() - T0;

  WorkerResult Total;
  for (const WorkerResult &R : Results) {
    Total.Answered += R.Answered;
    Total.Mismatched += R.Mismatched;
    Total.TransportErr += R.TransportErr;
    Total.SentCrash += R.SentCrash;
    Total.SentHang += R.SentHang;
    Total.SentOom += R.SentOom;
    Total.LatenciesUs.insert(Total.LatenciesUs.end(), R.LatenciesUs.begin(),
                             R.LatenciesUs.end());
  }
  std::sort(Total.LatenciesUs.begin(), Total.LatenciesUs.end());
  uint64_t P50 = percentile(Total.LatenciesUs, 0.50);
  uint64_t P99 = percentile(Total.LatenciesUs, 0.99);
  double Rps = WallMs > 0 ? 1000.0 * static_cast<double>(Total.Answered) /
                                WallMs
                          : 0;

  std::printf("rploadgen: %llu answered, %llu transport errors, "
              "%llu mismatched in %.0f ms (%.1f req/s)\n",
              static_cast<unsigned long long>(Total.Answered),
              static_cast<unsigned long long>(Total.TransportErr),
              static_cast<unsigned long long>(Total.Mismatched), WallMs, Rps);
  std::printf("rploadgen: latency p50 %llu us, p99 %llu us\n",
              static_cast<unsigned long long>(P50),
              static_cast<unsigned long long>(P99));

  // Log2 latency histogram, same bucket layout as the metrics registry.
  {
    std::vector<uint64_t> Buckets(MetricHistogramBuckets, 0);
    for (uint64_t L : Total.LatenciesUs)
      ++Buckets[metricBucketFor(L)];
    std::printf("rploadgen: latency histogram (log2 us):\n");
    for (size_t B = 0; B != Buckets.size(); ++B) {
      if (!Buckets[B])
        continue;
      uint64_t Lo = B == 0 ? 0 : (uint64_t(1) << (B - 1));
      std::printf("  [%llu, %llu): %llu\n",
                  static_cast<unsigned long long>(Lo),
                  static_cast<unsigned long long>(uint64_t(1) << B),
                  static_cast<unsigned long long>(Buckets[B]));
    }
  }

  bool Failed = Total.TransportErr != 0 || Total.Mismatched != 0;

  // Outcome bookkeeping: the daemon's jobs_outcome counters must equal the
  // faults this (sole) client injected.
  uint64_t GotCrash = 0, GotHang = 0, GotOom = 0;
  if (ExpectOutcomes) {
    HttpClient Client;
    HttpClientResponse Resp;
    Status S = Client.connect(Host, static_cast<uint16_t>(Port), 30.0);
    if (S)
      S = Client.request("GET", "/metrics", "", Resp);
    if (!S || Resp.Status != 200) {
      std::fprintf(stderr, "rploadgen: /metrics scrape failed: %s\n",
                   S ? "non-200" : S.message().c_str());
      Failed = true;
    } else {
      GotCrash = promOutcome(Resp.Body, "crash");
      GotHang = promOutcome(Resp.Body, "timeout");
      GotOom = promOutcome(Resp.Body, "oom");
      if (GotCrash != Total.SentCrash || GotHang != Total.SentHang ||
          GotOom != Total.SentOom) {
        std::fprintf(stderr,
                     "rploadgen: outcome mismatch: sent crash=%llu "
                     "hang=%llu oom=%llu, daemon counted crash=%llu "
                     "timeout=%llu oom=%llu\n",
                     static_cast<unsigned long long>(Total.SentCrash),
                     static_cast<unsigned long long>(Total.SentHang),
                     static_cast<unsigned long long>(Total.SentOom),
                     static_cast<unsigned long long>(GotCrash),
                     static_cast<unsigned long long>(GotHang),
                     static_cast<unsigned long long>(GotOom));
        Failed = true;
      } else {
        std::printf("rploadgen: outcome counters match "
                    "(crash=%llu timeout=%llu oom=%llu)\n",
                    static_cast<unsigned long long>(GotCrash),
                    static_cast<unsigned long long>(GotHang),
                    static_cast<unsigned long long>(GotOom));
      }
    }
  }

  if (Spawned.Pid >= 0) {
    int Rc = Spawned.shutdown();
    if (Rc != 0) {
      std::fprintf(stderr,
                   "rploadgen: rpserved did not drain cleanly (exit %d)\n",
                   Rc);
      Failed = true;
    } else {
      std::printf("rploadgen: rpserved drained cleanly on SIGTERM\n");
    }
  }

  if (!JsonFile.empty()) {
    std::string J = "{\"answered\":" + std::to_string(Total.Answered) +
                    ",\"transport_errors\":" +
                    std::to_string(Total.TransportErr) +
                    ",\"mismatched\":" + std::to_string(Total.Mismatched) +
                    ",\"wall_ms\":" + std::to_string(WallMs) +
                    ",\"rps\":" + std::to_string(Rps) +
                    ",\"p50_us\":" + std::to_string(P50) +
                    ",\"p99_us\":" + std::to_string(P99) + "}\n";
    std::ofstream Out(JsonFile, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "rploadgen: cannot write %s\n", JsonFile.c_str());
      return 4;
    }
    Out << J;
  }

  return Failed ? 1 : 0;
}
