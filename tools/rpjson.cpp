//===- tools/rpjson.cpp - Observability JSON validator --------------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
// Schema-checks the JSON the toolchain emits: files are read through the
// library's one JSON reader (support/JsonParse), and each format is a table
// of per-shape fields plus the cross-field rules a table cannot say. The
// tool links nothing else from rpcc — it shares no code with the emitters
// it double-checks. Wired into ctest so a malformed emitter fails the
// build, not a downstream dashboard.
//
//   rpjson remarks FILE    JSON-lines remark stream (--remarks-json)
//   rpjson profile FILE    tag-profile object(s), one per line
//                          (--profile-json; suite mode emits one per
//                          program)
//   rpjson trace FILE      Chrome trace-event object (--trace)
//   rpjson timing FILE     timing report object (--timing-json=FILE)
//   rpjson canon FILE      parse a trace file and print its deterministic
//                          skeleton: volatile fields (ts/dur/tid) removed,
//                          events sorted — byte-comparable across runs and
//                          worker counts
//   rpjson metrics FILE    metrics registry object (--metrics-json)
//   rpjson prom FILE       Prometheus text exposition (--metrics-prom):
//                          HELP/TYPE discipline, name charset, monotone
//                          cumulative histogram buckets
//   rpjson metrics-canon FILE
//                          print a metrics file's deterministic skeleton:
//                          volatile metrics dropped, count-stable
//                          histograms reduced to their count —
//                          byte-comparable across runs and worker counts
//   rpjson bench FILE      benchmark report (bench/interp_throughput
//                          --json, compile_time --cache-bench --json):
//                          engine/mode discipline, provenance, per-row
//                          spread order, per-program step agreement
//                          across engines, jit geomean presence
//   rpjson bench-served FILE
//                          serving benchmark report (bench/served_throughput
//                          --json): scenario discipline, per-row rate and
//                          percentile sanity, headline speedup consistency
//
// Exit codes: 0 valid, 1 invalid or unreadable input, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "support/JsonParse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using rpcc::JsonValue;

constexpr JsonValue::Kind Str = JsonValue::String, Num = JsonValue::Number,
                          Arr = JsonValue::Array, Obj = JsonValue::Object;

//===----------------------------------------------------------------------===//
// Shapes and the checker
//===----------------------------------------------------------------------===//

/// One key of an object shape: its JSON kind, for strings an optional
/// closed vocabulary (empty means any value), for numbers an optional
/// integral lower bound, and whether the key may be absent.
struct Field {
  const char *Key;
  JsonValue::Kind K;
  std::vector<const char *> Allowed = {};
  double Min = -HUGE_VAL;
  bool Optional = false;
};
Field str(const char *Key, std::vector<const char *> Allowed = {}) {
  return {Key, Str, std::move(Allowed)};
}
Field num(const char *Key, double Min = -HUGE_VAL) {
  return {Key, Num, {}, Min};
}
Field arr(const char *Key) { return {Key, Arr}; }
Field obj(const char *Key) { return {Key, Obj}; }
Field optional(Field F) {
  F.Optional = true;
  return F;
}
using Shape = std::vector<Field>;

/// The field \p Key of \p O when it is present with kind \p K, else null:
/// what cross-field rules read once the shape has been reported on.
const JsonValue *get(const JsonValue &O, const char *Key, JsonValue::Kind K) {
  const JsonValue *F = O.field(Key);
  return F && F->K == K ? F : nullptr;
}

struct NoRules {
  void operator()(const JsonValue &, const std::string &, size_t) const {}
};

/// Collects schema violations; the first few are reported with context.
struct Checker {
  std::vector<std::string> Problems;

  void problem(const std::string &Where, const std::string &What) {
    Problems.push_back(Where + ": " + What);
  }

  /// Reports every key of \p S that \p O lacks, holds with the wrong kind,
  /// or holds with a value outside the key's vocabulary or bound.
  void checkFields(const JsonValue &O, const std::string &Where,
                   const Shape &S) {
    for (const Field &F : S) {
      const JsonValue *V = O.field(F.Key);
      std::string Key = F.Key;
      if (!V) {
        if (!F.Optional)
          problem(Where, "missing key '" + Key + "'");
      } else if (V->K != F.K) {
        problem(Where, "key '" + Key + "' has wrong type");
      } else if (!F.Allowed.empty() &&
                 std::none_of(F.Allowed.begin(), F.Allowed.end(),
                              [&](const char *A) { return V->Str == A; })) {
        problem(Where, "key '" + Key + "' has unknown value '" + V->Str + "'");
      } else if (V->K == Num && V->Num < F.Min) {
        problem(Where, F.Min == 0 ? Key + " is negative"
                                  : Key + " must be at least " +
                                        std::to_string(
                                            static_cast<long long>(F.Min)));
      }
    }
  }

  /// Checks each element of array \p A (which may be null) against \p S
  /// and then its cross-field \p Rules(Element, Where, Index); elements
  /// that are not objects are reported instead. A prefix ending in a space
  /// names elements by bare index ("metric 3"), any other by subscript
  /// ("counts[3]").
  template <typename Fn = NoRules>
  void forEachObject(const JsonValue *A, const std::string &Prefix,
                     const Shape &S, Fn Rules = {}) {
    if (!A)
      return;
    for (size_t I = 0; I != A->Items.size(); ++I) {
      std::string Where = Prefix.back() == ' '
                              ? Prefix + std::to_string(I)
                              : Prefix + "[" + std::to_string(I) + "]";
      if (A->Items[I].K != Obj) {
        problem(Where, "not an object");
        continue;
      }
      checkFields(A->Items[I], Where, S);
      Rules(A->Items[I], Where, I);
    }
  }
};

/// Prints the first problems and returns the exit code: 1 if there are
/// any, else 0 after an "ok" line counting \p N checked objects.
int finish(const Checker &C, const char *What, size_t N) {
  for (size_t I = 0; I != C.Problems.size() && I != 10; ++I)
    std::fprintf(stderr, "rpjson: %s\n", C.Problems[I].c_str());
  if (C.Problems.size() > 10)
    std::fprintf(stderr, "rpjson: ... and %zu more problem(s)\n",
                 C.Problems.size() - 10);
  if (!C.Problems.empty())
    return 1;
  std::fprintf(stderr, "rpjson: %s ok (%zu object(s))\n", What, N);
  return 0;
}

/// Validates a JSON-lines file: every non-empty line one object checked by
/// \p CheckOne. \p What names the format in diagnostics.
int checkJsonLines(const std::string &Text, const char *What,
                   void (*CheckOne)(const JsonValue &, const std::string &,
                                    Checker &)) {
  Checker C;
  size_t LineNo = 0, Objects = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    std::string Where = std::string(What) + " line " + std::to_string(LineNo);
    JsonValue V;
    std::string Error;
    if (!rpcc::parseJson(Line, V, Error)) {
      C.problem(Where, Error);
      continue;
    }
    if (V.K != Obj) {
      C.problem(Where, "line is not a JSON object");
      continue;
    }
    ++Objects;
    CheckOne(V, Where, C);
  }
  if (Objects == 0)
    C.Problems.push_back(std::string(What) + ": no objects found");
  return finish(C, What, Objects);
}

/// Parses a whole-file JSON object (trace, timing, metrics, bench).
int parseWholeFile(const std::string &Text, const char *What, JsonValue &V) {
  std::string Error;
  if (!rpcc::parseJson(Text, V, Error)) {
    std::fprintf(stderr, "rpjson: %s: %s\n", What, Error.c_str());
    return 1;
  }
  if (V.K != Obj) {
    std::fprintf(stderr, "rpjson: %s: top-level value is not an object\n",
                 What);
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Remarks and tag profiles (JSON lines)
//===----------------------------------------------------------------------===//

const Shape RemarkShape = {
    str("pass"),
    str("kind", {"promoted", "missed", "hoisted", "residual", "note"}),
    str("reason",
        {"none", "call-modref", "aliased-pointer-op", "reg-pressure",
         "no-landing-pad", "loop-variant-address", "group-conflict",
         "multi-tag-pointer", "tag-modified", "multiple-defs", "spill-slot",
         "promotion-off", "late-promotable", "heap-or-unknown"}),
    str("function"),
    str("loop"),
    num("depth"),
    str("tag"),
    str("message")};

void checkRemarkObject(const JsonValue &O, const std::string &Where,
                       Checker &C) {
  C.checkFields(O, Where, RemarkShape);
}

const Shape ProfileShape = {arr("loops"), arr("counts"), num("total_loads"),
                            num("total_stores")};
const Shape ProfileLoopShape = {str("function"), str("header"), num("depth"),
                                num("parent")};
const Shape ProfileCountShape = {str("function"), str("tag"),   str("kind"),
                                 num("loop"),     num("loads"), num("stores")};

void checkProfileObject(const JsonValue &O, const std::string &Where,
                        Checker &C) {
  C.checkFields(O, Where, ProfileShape);
  const JsonValue *Loops = get(O, "loops", Arr);
  C.forEachObject(Loops, Where + " loops", ProfileLoopShape,
                  [&](const JsonValue &L, const std::string &At, size_t I) {
                    const JsonValue *Parent = get(L, "parent", Num);
                    if (Parent && Parent->Num >= static_cast<double>(I))
                      C.problem(At, "parent must precede the loop (preorder)");
                  });
  double Loads = 0, Stores = 0;
  C.forEachObject(
      get(O, "counts", Arr), Where + " counts", ProfileCountShape,
      [&](const JsonValue &E, const std::string &At, size_t) {
        const JsonValue *Loop = get(E, "loop", Num);
        if (Loop && Loops &&
            Loop->Num >= static_cast<double>(Loops->Items.size()))
          C.problem(At, "loop index out of range");
        if (const JsonValue *F = get(E, "loads", Num))
          Loads += F->Num;
        if (const JsonValue *F = get(E, "stores", Num))
          Stores += F->Num;
      });
  // The profiler's core invariant: per-tag counts partition the totals.
  const JsonValue *TotalLoads = get(O, "total_loads", Num);
  const JsonValue *TotalStores = get(O, "total_stores", Num);
  if (TotalLoads && Loads != TotalLoads->Num)
    C.problem(Where, "counts' loads do not sum to total_loads");
  if (TotalStores && Stores != TotalStores->Num)
    C.problem(Where, "counts' stores do not sum to total_stores");
}

//===----------------------------------------------------------------------===//
// Traces and timing reports
//===----------------------------------------------------------------------===//

const Shape TraceShape = {arr("traceEvents"), str("displayTimeUnit")};
const Shape TraceEventShape = {str("name"), str("cat"), str("ph"), num("ts"),
                               num("dur"),  num("pid"), num("tid")};

int checkTrace(const std::string &Text, bool Canon) {
  JsonValue V;
  if (int Rc = parseWholeFile(Text, "trace", V))
    return Rc;
  Checker C;
  C.checkFields(V, "trace", TraceShape);
  const JsonValue *Events = get(V, "traceEvents", Arr);
  std::vector<std::string> CanonLines;
  C.forEachObject(
      Events, "trace event ", TraceEventShape,
      [&](const JsonValue &E, const std::string &At, size_t) {
        const JsonValue *Ph = get(E, "ph", Str);
        if (Ph && Ph->Str != "X")
          C.problem(At, "ph must be \"X\" (complete span)");
        std::string Flat;
        if (const JsonValue *Args = E.field("args")) {
          if (Args->K != Obj)
            C.problem(At, "args is not an object");
          else
            for (const auto &M : Args->Members) {
              if (M.second.K != Str)
                C.problem(At,
                          "args value for '" + M.first + "' is not a string");
              else
                Flat += "\x1f" + M.first + "=" + M.second.Str;
            }
        }
        const JsonValue *Name = get(E, "name", Str), *Cat = get(E, "cat", Str);
        if (Canon && Name && Cat)
          CanonLines.push_back(Cat->Str + "\x1e" + Name->Str + Flat);
      });
  if (Canon && C.Problems.empty()) {
    // The deterministic skeleton: wall-clock fields dropped, events
    // sorted. Two runs of the same workload canonicalize identically no
    // matter the timing or worker count.
    std::sort(CanonLines.begin(), CanonLines.end());
    for (const std::string &L : CanonLines) {
      std::string Printable = L;
      std::replace(Printable.begin(), Printable.end(), '\x1e', '|');
      std::replace(Printable.begin(), Printable.end(), '\x1f', ';');
      std::printf("%s\n", Printable.c_str());
    }
    return 0;
  }
  return finish(C, "trace", Events ? Events->Items.size() : 0);
}

// "jobs" is optional: present only for sandboxed runs (a JobLog rendering),
// absent — not empty — otherwise.
const Shape TimingShape = {
    num("compiles"),     num("compile_ms"),   num("interp_ms"),
    num("interp_steps"), num("frontend_ms"),  num("suffix_ms"),
    num("cache_hits"),   num("cache_misses"), num("pool_items"),
    num("pool_busy_ms"), str("engine"),       optional(arr("jobs")),
    arr("passes")};
const Shape TimingJobShape = {
    str("name"),
    str("status", {"ok", "trap", "timeout", "oom", "crash", "internal-error"}),
    num("signal"), num("wall_ms"), num("attempts", 1)};
const Shape TimingPassShape = {str("name"), num("calls"), num("ms"),
                               num("ops_before"), num("ops_after")};

int checkTiming(const std::string &Text) {
  JsonValue V;
  if (int Rc = parseWholeFile(Text, "timing", V))
    return Rc;
  Checker C;
  C.checkFields(V, "timing", TimingShape);
  C.forEachObject(get(V, "jobs", Arr), "timing jobs", TimingJobShape);
  const JsonValue *Passes = get(V, "passes", Arr);
  C.forEachObject(Passes, "timing passes", TimingPassShape);
  return finish(C, "timing", Passes ? Passes->Items.size() : 0);
}

//===----------------------------------------------------------------------===//
// Metrics registry JSON (--metrics-json)
//===----------------------------------------------------------------------===//

/// Registry metric names: lowercase dotted words, e.g. "pool.task_wait_us".
bool validMetricName(const std::string &N) {
  if (N.empty() || !(N[0] >= 'a' && N[0] <= 'z'))
    return false;
  for (char C : N)
    if (!((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '.' ||
          C == '_'))
      return false;
  return true;
}

/// Renders a parsed JSON number the way the emitter wrote it: integers
/// without a decimal point (every registry value is a uint64 that survives
/// the double round-trip), anything else via %g.
std::string renderNum(const JsonValue *V) {
  if (!V)
    return "?";
  long long N = static_cast<long long>(V->Num);
  if (static_cast<double>(N) == V->Num)
    return std::to_string(N);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", V->Num);
  return Buf;
}

const Shape MetricsShape = {str("schema"), num("wall_ms"), arr("metrics")};
const Shape MetricShape = {
    str("name"),
    obj("labels"),
    str("kind", {"counter", "gauge", "histogram"}),
    str("stability", {"stable", "count-stable", "volatile"}),
    str("unit"),
    str("help")};
const Shape HistogramShape = {num("count"), num("sum"), arr("buckets")};
const Shape ScalarShape = {num("value")};

int checkMetrics(const std::string &Text, bool Canon) {
  JsonValue V;
  if (int Rc = parseWholeFile(Text, "metrics", V))
    return Rc;
  Checker C;
  C.checkFields(V, "metrics", MetricsShape);
  if (const JsonValue *Schema = get(V, "schema", Str);
      Schema && Schema->Str != "metrics")
    C.problem("metrics", "schema must be \"metrics\"");
  const JsonValue *List = get(V, "metrics", Arr);
  std::string PrevKey;
  std::vector<std::string> CanonLines;
  auto Rules = [&](const JsonValue &M, const std::string &At, size_t I) {
    const JsonValue *Name = get(M, "name", Str);
    const JsonValue *Labels = get(M, "labels", Obj);
    const JsonValue *Kind = get(M, "kind", Str);
    const JsonValue *Stab = get(M, "stability", Str);
    if (Name && !validMetricName(Name->Str))
      C.problem(At,
                "name '" + Name->Str + "' has characters outside [a-z0-9._]");
    std::string LabelsFlat;
    if (Labels)
      for (const auto &KV : Labels->Members) {
        if (KV.second.K != Str)
          C.problem(At, "label '" + KV.first + "' is not a string");
        else
          LabelsFlat += "\x1f" + KV.first + "=" + KV.second.Str;
      }
    bool IsHist = Kind && Kind->Str == "histogram";
    if (Kind)
      C.checkFields(M, At, IsHist ? HistogramShape : ScalarShape);
    const JsonValue *Buckets = IsHist ? get(M, "buckets", Arr) : nullptr;
    if (Buckets) {
      if (Buckets->Items.size() != 65)
        C.problem(At, "buckets must have exactly 65 entries");
      double Total = 0;
      bool AllNum = true;
      for (const JsonValue &B : Buckets->Items) {
        if (B.K != Num || B.Num < 0) {
          AllNum = false;
          break;
        }
        Total += B.Num;
      }
      const JsonValue *Count = get(M, "count", Num);
      if (!AllNum)
        C.problem(At, "buckets must be non-negative numbers");
      else if (Count && Total != Count->Num)
        C.problem(At, "buckets do not sum to count");
    }
    // The emitter walks a map keyed (name, labels), so the array must be
    // strictly sorted by that composite key — this is what makes the file
    // diffable at all.
    if (Name) {
      std::string Key = Name->Str + LabelsFlat;
      if (I && Key <= PrevKey)
        C.problem(At, "metrics are not sorted by (name, labels), or duplicate");
      PrevKey = Key;
    }
    if (Canon && Name && Stab && Stab->Str != "volatile") {
      // Mirrors rpcc::metricsCanon: the run-invariant projection.
      std::string L = Name->Str;
      if (Labels && !Labels->Members.empty()) {
        L += "{";
        bool First = true;
        for (const auto &KV : Labels->Members) {
          if (!First)
            L += ",";
          First = false;
          L += KV.first + "=" + KV.second.Str;
        }
        L += "}";
      }
      if (IsHist) {
        L += " count=" + renderNum(M.field("count"));
        if (Stab->Str == "stable") {
          L += " sum=" + renderNum(M.field("sum")) + " buckets=";
          bool First = true;
          if (Buckets)
            for (size_t B = 0; B != Buckets->Items.size(); ++B) {
              if (Buckets->Items[B].Num == 0)
                continue;
              if (!First)
                L += ",";
              First = false;
              L += std::to_string(B) + ":" + renderNum(&Buckets->Items[B]);
            }
          if (First)
            L += "-";
        }
      } else {
        L += " " + renderNum(M.field("value"));
      }
      CanonLines.push_back(L);
    }
  };
  C.forEachObject(List, "metric ", MetricShape, Rules);
  if (Canon && C.Problems.empty()) {
    for (const std::string &L : CanonLines)
      std::printf("%s\n", L.c_str());
    return 0;
  }
  return finish(C, "metrics", List ? List->Items.size() : 0);
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (--metrics-prom)
//===----------------------------------------------------------------------===//

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool validPromName(const std::string &N) {
  auto Alpha = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_' ||
           C == ':';
  };
  if (N.empty() || !Alpha(N[0]))
    return false;
  for (char C : N)
    if (!Alpha(C) && !(C >= '0' && C <= '9'))
      return false;
  return true;
}

int checkProm(const std::string &Text) {
  Checker C;
  std::map<std::string, std::string> Types; ///< family -> TYPE token
  std::map<std::string, bool> Helped;       ///< family -> HELP seen
  size_t Samples = 0, LineNo = 0, Pos = 0;

  // Histogram families are checked as a streaming state machine: their
  // samples are contiguous (_bucket* then _sum then _count), cumulative
  // bucket counts must be monotone over strictly increasing le bounds, the
  // last bucket must be le="+Inf", and _count must equal it.
  struct HistState {
    std::string Family;
    double LastLe = 0, LastBucket = 0, InfVal = 0, CountVal = 0;
    bool HaveBucket = false, SawInf = false, SawSum = false,
         SawCount = false;
  } H;
  auto finishHist = [&]() {
    if (H.Family.empty())
      return;
    std::string Where = "prom family " + H.Family;
    if (!H.SawInf)
      C.problem(Where, "histogram has no le=\"+Inf\" bucket");
    if (!H.SawSum)
      C.problem(Where, "histogram has no _sum sample");
    if (!H.SawCount)
      C.problem(Where, "histogram has no _count sample");
    else if (H.SawInf && H.CountVal != H.InfVal)
      C.problem(Where, "_count does not equal the +Inf bucket");
    H = HistState();
  };

  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    std::ostringstream WS;
    WS << "prom line " << LineNo;
    std::string Where = WS.str();
    if (Line.empty())
      continue;

    if (Line.compare(0, 7, "# HELP ") == 0 ||
        Line.compare(0, 7, "# TYPE ") == 0) {
      bool IsType = Line[2] == 'T';
      size_t Sp = Line.find(' ', 7);
      std::string Name =
          Line.substr(7, Sp == std::string::npos ? std::string::npos
                                                 : Sp - 7);
      if (!validPromName(Name))
        C.problem(Where, "bad metric name '" + Name + "'");
      if (Sp == std::string::npos || Sp + 1 >= Line.size())
        C.problem(Where, IsType ? "TYPE without a type" : "HELP without text");
      else if (IsType) {
        std::string T = Line.substr(Sp + 1);
        if (T != "counter" && T != "gauge" && T != "histogram")
          C.problem(Where, "unknown type '" + T + "'");
        if (Types.count(Name))
          C.problem(Where, "duplicate TYPE for '" + Name + "'");
        Types[Name] = T;
      } else {
        if (Helped.count(Name) && Helped[Name])
          C.problem(Where, "duplicate HELP for '" + Name + "'");
        Helped[Name] = true;
      }
      continue;
    }
    if (Line[0] == '#')
      continue; // other comments are legal and unchecked

    // A sample: name[{labels}] value.
    size_t NameEnd = Line.find_first_of("{ ");
    if (NameEnd == std::string::npos) {
      C.problem(Where, "sample has no value");
      continue;
    }
    std::string Name = Line.substr(0, NameEnd);
    if (!validPromName(Name))
      C.problem(Where, "bad metric name '" + Name + "'");
    std::string Le;
    bool HasLe = false, BadLabels = false;
    size_t ValPos = NameEnd;
    if (Line[NameEnd] == '{') {
      size_t P = NameEnd + 1;
      while (P < Line.size() && Line[P] != '}') {
        size_t Eq = Line.find('=', P);
        if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
            Line[Eq + 1] != '"') {
          C.problem(Where, "malformed label");
          BadLabels = true;
          break;
        }
        std::string Key = Line.substr(P, Eq - P);
        std::string Val;
        size_t Q = Eq + 2;
        while (Q < Line.size() && Line[Q] != '"') {
          if (Line[Q] == '\\' && Q + 1 < Line.size()) {
            Val += Line[Q + 1] == 'n' ? '\n' : Line[Q + 1];
            Q += 2;
          } else {
            Val += Line[Q++];
          }
        }
        if (Q >= Line.size()) {
          C.problem(Where, "unterminated label value");
          BadLabels = true;
          break;
        }
        if (Key == "le") {
          Le = Val;
          HasLe = true;
        }
        P = Q + 1;
        if (P < Line.size() && Line[P] == ',')
          ++P;
      }
      if (BadLabels)
        continue;
      if (P >= Line.size() || Line[P] != '}') {
        C.problem(Where, "unterminated label set");
        continue;
      }
      ValPos = P + 1;
    }
    if (ValPos >= Line.size() || Line[ValPos] != ' ') {
      C.problem(Where, "sample has no value");
      continue;
    }
    const char *VS = Line.c_str() + ValPos + 1;
    char *End = nullptr;
    double Val = std::strtod(VS, &End);
    if (End == VS || *End) {
      C.problem(Where, "malformed sample value");
      continue;
    }
    ++Samples;

    // Histogram series samples belong to the base family.
    std::string Family = Name;
    for (const char *Suf : {"_bucket", "_sum", "_count"}) {
      size_t N = std::strlen(Suf);
      if (Name.size() > N &&
          Name.compare(Name.size() - N, N, Suf) == 0) {
        std::string Base = Name.substr(0, Name.size() - N);
        auto It = Types.find(Base);
        if (It != Types.end() && It->second == "histogram") {
          Family = Base;
          break;
        }
      }
    }
    if (!Types.count(Family))
      C.problem(Where, "sample for '" + Family +
                           "' without a preceding # TYPE");
    if (!Helped.count(Family) || !Helped[Family])
      C.problem(Where, "sample for '" + Family +
                           "' without a preceding # HELP");

    bool IsHist =
        Types.count(Family) && Types[Family] == "histogram";
    if (!IsHist || Family != H.Family)
      finishHist();
    if (IsHist) {
      H.Family = Family;
      if (Name == Family + "_bucket") {
        if (!HasLe) {
          C.problem(Where, "_bucket sample without an le label");
        } else {
          double LeV =
              Le == "+Inf" ? HUGE_VAL : std::strtod(Le.c_str(), nullptr);
          if (H.SawInf)
            C.problem(Where, "bucket after le=\"+Inf\"");
          if (H.HaveBucket && LeV <= H.LastLe)
            C.problem(Where, "le bounds not strictly increasing");
          if (H.HaveBucket && Val < H.LastBucket)
            C.problem(Where, "cumulative bucket count decreased");
          H.HaveBucket = true;
          H.LastLe = LeV;
          H.LastBucket = Val;
          if (Le == "+Inf") {
            H.SawInf = true;
            H.InfVal = Val;
          }
        }
      } else if (Name == Family + "_sum") {
        H.SawSum = true;
      } else if (Name == Family + "_count") {
        H.SawCount = true;
        H.CountVal = Val;
      } else {
        C.problem(Where,
                  "histogram sample must be _bucket, _sum, or _count");
      }
    }
  }
  finishHist();
  if (Samples == 0)
    C.Problems.push_back("prom: no samples found");
  return finish(C, "prom", Samples);
}

/// Validates the benchmark JSON the bench/ harnesses commit at the repo
/// root. One mode covers both shapes — BENCH_interp.json rows carry an
/// engine and a step count, BENCH_compile.json rows carry a cache mode —
/// because everything else (reps, program, wall_ms, the geomean footer) is
/// shared. Cross-row semantics are checked too: every engine must report
/// the same step count for a program (the engines are observationally
/// identical by contract), and the jit geomean must be present exactly
/// when jit rows are. Every report also records its provenance (build
/// type, commit, core count) and each row's spread over its timed runs,
/// ordered wall_ms (the minimum) <= median_ms <= max_ms.
const Shape BenchShape = {num("reps", 1), num("geomean_speedup"),
                          arr("results")};
const Shape BenchRowShape = {str("program"), num("wall_ms", 0)};
const Shape SpreadShape = {num("median_ms", 0), num("max_ms", 0),
                           num("runs", 1)};
const Shape InterpRowShape = {str("engine", {"switch", "fastpath", "jit"}),
                              num("steps"), optional(num("compile_ms", 0))};
const Shape CompileRowShape = {str("mode", {"uncached", "cached"})};
const Shape ProvenanceShape = {str("build_type"), str("commit"),
                               num("nproc", 1)};

int checkBench(const std::string &Text) {
  JsonValue V;
  if (int Rc = parseWholeFile(Text, "bench", V))
    return Rc;
  Checker C;
  C.checkFields(V, "bench", BenchShape);
  const JsonValue *Results = get(V, "results", Arr);
  if (Results && Results->Items.empty())
    C.problem("bench", "results is empty");
  bool SawJit = false, SawRow = false;
  std::map<std::string, double> StepsOf;
  auto Rules = [&](const JsonValue &R, const std::string &At, size_t) {
    bool HasEngine = R.field("engine"), HasMode = R.field("mode");
    if (HasEngine && HasMode) {
      C.problem(At, "row has both 'engine' and 'mode'");
      return;
    }
    if (!HasEngine && !HasMode) {
      C.problem(At, "row needs 'engine' (interp bench) or 'mode' (compile "
                    "bench)");
      return;
    }
    SawRow = true;
    C.checkFields(R, At, HasEngine ? InterpRowShape : CompileRowShape);
    C.checkFields(R, At, SpreadShape);
    const JsonValue *Min = get(R, "wall_ms", Num);
    const JsonValue *Median = get(R, "median_ms", Num);
    const JsonValue *Max = get(R, "max_ms", Num);
    if (Min && Median && Max &&
        !(Min->Num <= Median->Num && Median->Num <= Max->Num))
      C.problem(At, "wall_ms <= median_ms <= max_ms does not hold");
    if (!HasEngine)
      return;
    const JsonValue *Engine = get(R, "engine", Str);
    SawJit |= Engine && Engine->Str == "jit";
    const JsonValue *Prog = get(R, "program", Str);
    const JsonValue *Steps = get(R, "steps", Num);
    if (Prog && Steps) {
      auto [It, New] = StepsOf.emplace(Prog->Str, Steps->Num);
      if (!New && It->second != Steps->Num)
        C.problem(At, "engines disagree on steps for '" + Prog->Str + "'");
    }
  };
  C.forEachObject(Results, "bench results", BenchRowShape, Rules);
  if (SawRow)
    C.checkFields(V, "bench", ProvenanceShape);
  if (SawJit)
    C.checkFields(V, "bench", {num("geomean_speedup_jit")});
  else if (V.field("geomean_speedup_jit"))
    C.problem("bench", "geomean_speedup_jit present without jit rows");
  return finish(C, "bench", Results ? Results->Items.size() : 0);
}

/// Validates the serving benchmark JSON (bench/served_throughput --json,
/// committed as BENCH_served.json). Beyond per-row shape, the cross-row
/// claims are checked: every (scenario, connections) row is unique, the
/// headline connection count actually has warm and fork rows, the headline
/// rates match those rows, and the speedup is their ratio — so the number
/// the README quotes cannot drift from the data it summarizes.
const Shape BenchServedShape = {
    num("requests_per_conn", 1), num("workers", 1),
    arr("results"),              num("headline_connections"),
    num("warm_rps"),             num("fork_rps"),
    num("speedup_warm_vs_fork")};
const Shape BenchServedRowShape = {
    str("scenario", {"fork", "cold", "warm"}),
    num("connections", 1),
    num("requests", 1),
    num("wall_ms", 0),
    num("rps"),
    num("p50_us", 0),
    num("p99_us")};

int checkBenchServed(const std::string &Text) {
  JsonValue V;
  if (int Rc = parseWholeFile(Text, "bench-served", V))
    return Rc;
  Checker C;
  C.checkFields(V, "bench-served", BenchServedShape);
  const JsonValue *Results = get(V, "results", Arr);
  if (Results && Results->Items.empty())
    C.problem("bench-served", "results is empty");
  std::map<std::string, double> RpsOf; ///< "scenario/conns" -> rps
  auto Rules = [&](const JsonValue &R, const std::string &At, size_t) {
    const JsonValue *Rps = get(R, "rps", Num);
    if (Rps && Rps->Num <= 0)
      C.problem(At, "rps must be positive");
    const JsonValue *P50 = get(R, "p50_us", Num), *P99 = get(R, "p99_us", Num);
    if (P50 && P99 && P99->Num < P50->Num)
      C.problem(At, "p99_us below p50_us");
    const JsonValue *Scen = get(R, "scenario", Str);
    const JsonValue *Conns = get(R, "connections", Num);
    if (Scen && Conns && Rps) {
      std::string Key = Scen->Str + "/" +
                        std::to_string(static_cast<long long>(Conns->Num));
      if (!RpsOf.emplace(Key, Rps->Num).second)
        C.problem(At, "duplicate (scenario, connections) row");
    }
  };
  C.forEachObject(Results, "bench-served results", BenchServedRowShape,
                  Rules);
  const JsonValue *Headline = get(V, "headline_connections", Num);
  const JsonValue *WarmRps = get(V, "warm_rps", Num);
  const JsonValue *ForkRps = get(V, "fork_rps", Num);
  const JsonValue *Speedup = get(V, "speedup_warm_vs_fork", Num);
  auto closeEnough = [](double A, double B) {
    double Mag = std::max(std::fabs(A), std::fabs(B));
    return std::fabs(A - B) <= 0.01 * Mag + 1e-3;
  };
  if (Headline && WarmRps && ForkRps) {
    std::string Suffix =
        "/" + std::to_string(static_cast<long long>(Headline->Num));
    auto Warm = RpsOf.find("warm" + Suffix);
    auto Fork = RpsOf.find("fork" + Suffix);
    if (Warm == RpsOf.end() || Fork == RpsOf.end())
      C.problem("bench-served", "no warm/fork rows at headline_connections");
    else {
      if (!closeEnough(Warm->second, WarmRps->Num))
        C.problem("bench-served", "warm_rps does not match its row");
      if (!closeEnough(Fork->second, ForkRps->Num))
        C.problem("bench-served", "fork_rps does not match its row");
    }
    if (Speedup && ForkRps->Num > 0 &&
        !closeEnough(Speedup->Num, WarmRps->Num / ForkRps->Num))
      C.problem("bench-served",
                "speedup_warm_vs_fork is not warm_rps / fork_rps");
  }
  return finish(C, "bench-served", Results ? Results->Items.size() : 0);
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 3) {
    std::fputs("usage: rpjson remarks|profile|trace|timing|canon|metrics|"
               "prom|metrics-canon|bench|bench-served FILE\n",
               stderr);
    return 2;
  }
  const char *Cmd = argv[1];
  std::ifstream In(argv[2], std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "rpjson: cannot open %s\n", argv[2]);
    return 1;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Text = SS.str();

  if (std::strcmp(Cmd, "remarks") == 0)
    return checkJsonLines(Text, "remarks", checkRemarkObject);
  if (std::strcmp(Cmd, "profile") == 0)
    return checkJsonLines(Text, "profile", checkProfileObject);
  if (std::strcmp(Cmd, "trace") == 0)
    return checkTrace(Text, false);
  if (std::strcmp(Cmd, "canon") == 0)
    return checkTrace(Text, true);
  if (std::strcmp(Cmd, "timing") == 0)
    return checkTiming(Text);
  if (std::strcmp(Cmd, "metrics") == 0)
    return checkMetrics(Text, false);
  if (std::strcmp(Cmd, "metrics-canon") == 0)
    return checkMetrics(Text, true);
  if (std::strcmp(Cmd, "prom") == 0)
    return checkProm(Text);
  if (std::strcmp(Cmd, "bench") == 0)
    return checkBench(Text);
  if (std::strcmp(Cmd, "bench-served") == 0)
    return checkBenchServed(Text);
  std::fprintf(stderr, "rpjson: unknown command '%s'\n", Cmd);
  return 2;
}
