//===- driver/ArtifactCache.cpp - Shared-prefix artifact cache ------------===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "driver/ArtifactCache.h"

#include "driver/PassTiming.h"
#include "obs/Metrics.h"

#include <cassert>

using namespace rpcc;

namespace {

/// cache.* metric handles, registered once. Hit/miss/coalesce splits are
/// Volatile: which of N racing workers pays the miss is a scheduling
/// accident. The stage latencies are count-stable: how many frontends and
/// analyses run is deterministic, their durations are wall time.
struct CacheMetrics {
  Counter Hits, Misses, Evictions, Coalesced;
  Gauge Bytes, Entries, Inflight;
  Histogram FrontendUs, AnalysisUs;
  CacheMetrics() {
    auto &R = MetricsRegistry::global();
    Hits = R.counter("cache.hits", {}, MetricStability::Volatile, "ops",
                     "Prefix cache lookups that ran no stage.");
    Misses = R.counter("cache.misses", {}, MetricStability::Volatile, "ops",
                       "Prefix cache lookups that ran the frontend or an "
                       "analysis.");
    Evictions = R.counter("cache.evictions", {}, MetricStability::Volatile,
                          "ops", "Whole artifacts evicted to respect the "
                                 "byte budget.");
    Coalesced = R.counter("cache.coalesced", {}, MetricStability::Volatile,
                          "ops",
                          "Lookups that attached to another lookup's build.");
    Bytes = R.gauge("cache.bytes", {}, MetricStability::Volatile, "bytes",
                    "Estimated bytes held by cached artifacts.");
    Entries = R.gauge("cache.entries", {}, MetricStability::Volatile, "ops",
                      "Artifacts resident in the cache.");
    Inflight = R.gauge("cache.inflight", {}, MetricStability::Volatile, "ops",
                       "Artifact builds currently in flight.");
    FrontendUs = R.histogram("compile.frontend_us", {},
                             MetricStability::CountStable, "us",
                             "Frontend stage latency (lex..cfg-normalize).");
    AnalysisUs = R.histogram("compile.analysis_us", {},
                             MetricStability::CountStable, "us",
                             "Alias analysis stage latency.");
  }
};

CacheMetrics &cacheMetrics() {
  static CacheMetrics M;
  return M;
}

/// Estimated resident footprint of one artifact stage: the module's static
/// op count times a per-op constant covering the instruction, its operand
/// vectors, and its share of block/table overhead. Deliberately coarse —
/// the budget bounds memory growth, it does not meter allocations.
constexpr size_t kBytesPerOp = 64;
constexpr size_t kEntryOverhead = 512;

size_t moduleBytes(const std::unique_ptr<Module> &M) {
  return M ? static_cast<size_t>(countStaticOps(*M)) * kBytesPerOp : 0;
}

size_t artifactBytes(const PrefixArtifact &Art) {
  size_t N = kEntryOverhead + Art.Source.size() + Art.FA.Errors.size() +
             moduleBytes(Art.FA.M);
  for (const AnalyzedModule &AM : Art.AM)
    N += AM.Errors.size() + moduleBytes(AM.M);
  return N;
}

std::shared_ptr<PrefixArtifact> newArtifact(const std::string &Key,
                                            const std::string &Source) {
  auto Art = std::make_shared<PrefixArtifact>();
  Art->Key = Key;
  Art->Source = Source;
  return Art;
}

void runFrontendStage(PrefixArtifact &Art, const StageOptions &SO,
                      ArtifactCache::Outcome &Out) {
  uint64_t T0 = metricsNowUs();
  Art.FA = runFrontend(Art.Source, SO);
  cacheMetrics().FrontendUs.observe(metricsNowUs() - T0);
  Out.Built = true;
}

} // namespace

std::string ArtifactCache::contentKey(const std::string &Source) {
  // Two independent FNV-1a lanes (different offset bases, the second lane
  // also folds in the length) give a 128-bit key. Collisions are handled —
  // get() compares sources — so the hash only needs to be uniform, not
  // cryptographic.
  uint64_t A = 1469598103934665603ull;
  uint64_t B = 0x9ae16a3b2f90404full ^ (0x9ddfea08eb382d69ull *
                                        (uint64_t)Source.size());
  for (unsigned char C : Source) {
    A = (A ^ C) * 1099511628211ull;
    B = (B ^ (C + 0x9eu)) * 1099511628211ull;
  }
  static const char *Hex = "0123456789abcdef";
  std::string Key(32, '0');
  for (int I = 0; I != 16; ++I) {
    Key[15 - I] = Hex[(A >> (I * 4)) & 0xF];
    Key[31 - I] = Hex[(B >> (I * 4)) & 0xF];
  }
  return Key;
}

ArtifactCache::ArtifactCache(size_t BudgetBytes) : Budget(BudgetBytes) {
  cacheMetrics(); // register gauges before the first scrape
}

ArtifactCache::~ArtifactCache() {
  // Short-lived caches (one per suite run or fuzz seed) take their share of
  // the process-wide gauges with them.
  CacheMetrics &CM = cacheMetrics();
  CM.Bytes.add(-PubBytes);
  CM.Entries.add(-PubEntries);
  CM.Inflight.add(-PubInflight);
}

size_t ArtifactCache::bytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return BytesUsed;
}

size_t ArtifactCache::entries() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

std::shared_ptr<PrefixArtifact> ArtifactCache::peek(const std::string &Key) {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(Key);
  return It == Map.end() ? nullptr : It->second.Art;
}

void ArtifactCache::evictOverBudgetLocked(const std::string &Keep) {
  while (BytesUsed > Budget && !Lru.empty()) {
    const std::string &Victim = Lru.back();
    if (Victim == Keep)
      break; // never evict the entry this request needs
    auto It = Map.find(Victim);
    assert(It != Map.end() && "LRU list out of sync with map");
    size_t Charged = It->second.Art->Charged.load(std::memory_order_relaxed);
    BytesUsed -= Charged < BytesUsed ? Charged : BytesUsed;
    Map.erase(It);
    Lru.pop_back();
    Evictions.fetch_add(1, std::memory_order_relaxed);
    cacheMetrics().Evictions.inc();
  }
  publishGaugesLocked();
}

void ArtifactCache::publishGaugesLocked() {
  CacheMetrics &CM = cacheMetrics();
  int64_t B = static_cast<int64_t>(BytesUsed);
  int64_t E = static_cast<int64_t>(Map.size());
  int64_t I = static_cast<int64_t>(Building.size());
  CM.Bytes.add(B - PubBytes);
  CM.Entries.add(E - PubEntries);
  CM.Inflight.add(I - PubInflight);
  PubBytes = B;
  PubEntries = E;
  PubInflight = I;
}

void ArtifactCache::ensureAnalyzed(const std::shared_ptr<PrefixArtifact> &Art,
                                   AnalysisKind Kind, const StageOptions &SO,
                                   Outcome &Out) {
  size_t Idx = Kind == AnalysisKind::PointsTo ? 1 : 0;
  std::call_once(Art->AnalyzedOnce[Idx], [&] {
    Out.Built = true;
    if (Art->FA.Ok) {
      StageOptions AnalysisSO = SO;
      if (!AnalysisSO.TraceLabel.empty())
        AnalysisSO.TraceLabel += Idx ? "/points-to" : "/modref";
      uint64_t T0 = metricsNowUs();
      Art->AM[Idx] = analyzeFrontend(Art->FA, Kind, AnalysisSO);
      cacheMetrics().AnalysisUs.observe(metricsNowUs() - T0);
    } else {
      // Frontend already failed; stamp the analysis stage with the same
      // errors so callers can consult AM[Kind] uniformly.
      Art->AM[Idx].Ok = false;
      Art->AM[Idx].Errors = Art->FA.Errors;
      Art->AM[Idx].Analysis = Kind;
    }
    // Recharge the entry for the stage that just materialized (the second
    // analysis kind typically arrives after insertion).
    size_t Now = artifactBytes(*Art);
    size_t Before = Art->Charged.exchange(Now, std::memory_order_relaxed);
    if (Now > Before) {
      std::lock_guard<std::mutex> L(Mu);
      // Identity check, not just key presence: a collision-bypass artifact
      // shares its key with a different resident entry, and its private
      // growth must not be charged to (and never released from) the cache
      // budget.
      auto It = Map.find(Art->Key);
      if (It != Map.end() && It->second.Art == Art) {
        BytesUsed += Now - Before;
        evictOverBudgetLocked(Art->Key);
      }
    }
  });
}

std::shared_ptr<PrefixArtifact>
ArtifactCache::get(const std::string &Source, AnalysisKind Kind, Outcome &Out,
                   const StageOptions &SO) {
  Out = Outcome();
  std::string Key = contentKey(Source);

  std::shared_ptr<PrefixArtifact> Art;
  std::shared_ptr<Inflight> Inf;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      // A 128-bit collision leaves the resident entry undisturbed and
      // compiles privately below.
      if (It->second.Art->Source == Source) {
        Lru.splice(Lru.begin(), Lru, It->second.LruIt);
        Art = It->second.Art;
        Out.Hit = true;
      } else {
        Out.Bypass = true;
      }
    } else if (auto BIt = Building.find(Key); BIt != Building.end()) {
      Inf = BIt->second;
    } else {
      Inf = std::make_shared<Inflight>();
      Building.emplace(Key, Inf);
      publishGaugesLocked();
      Out.Miss = true;
    }
  }

  if (Out.Miss) {
    Art = build(Key, Source, Kind, Inf, SO, Out);
  } else {
    if (Inf) {
      // Coalesce: wait for the builder's publication.
      std::unique_lock<std::mutex> L(Inf->Mu);
      Inf->Cv.wait(L, [&] { return Inf->Done; });
      if (Inf->Art->Source == Source) {
        Art = Inf->Art;
        Out.Coalesced = true;
        Coalesced.fetch_add(1, std::memory_order_relaxed);
        cacheMetrics().Coalesced.inc();
      } else {
        Out.Bypass = true; // collided with the in-flight build's source
      }
    }
    if (Out.Bypass) {
      Art = newArtifact(Key, Source);
      runFrontendStage(*Art, SO, Out);
    }
    ensureAnalyzed(Art, Kind, SO, Out);
  }

  (Out.Built ? Misses : Hits).fetch_add(1, std::memory_order_relaxed);
  (Out.Built ? cacheMetrics().Misses : cacheMetrics().Hits).inc();
  return Art;
}

std::shared_ptr<PrefixArtifact>
ArtifactCache::build(const std::string &Key, const std::string &Source,
                     AnalysisKind Kind, const std::shared_ptr<Inflight> &Inf,
                     const StageOptions &SO, Outcome &Out) {
  auto Art = newArtifact(Key, Source);

  // If anything below throws (e.g. std::bad_alloc on a hostile source),
  // the Building slot must still be freed and Done published, or every
  // coalesced waiter blocks on the Cv forever and the key is permanently
  // wedged. The guard turns such an exception into an uncached failed
  // artifact; the success path disarms it after publishing the real one.
  struct BuildGuard {
    ArtifactCache *C;
    const std::string &Key;
    std::shared_ptr<Inflight> Inf;
    std::shared_ptr<PrefixArtifact> Art;
    bool Armed = true;
    ~BuildGuard() {
      if (!Armed)
        return;
      Art->FA.Ok = false;
      if (Art->FA.Errors.empty())
        Art->FA.Errors = "internal error: artifact build failed";
      {
        std::lock_guard<std::mutex> L(C->Mu);
        C->Building.erase(Key);
        C->publishGaugesLocked();
      }
      {
        std::lock_guard<std::mutex> L(Inf->Mu);
        Inf->Done = true;
        Inf->Art = Art;
      }
      Inf->Cv.notify_all();
    }
  } Guard{this, Key, Inf, Art};

  runFrontendStage(*Art, SO, Out);
  ensureAnalyzed(Art, Kind, SO, Out);
  Art->Charged.store(artifactBytes(*Art), std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> L(Mu);
    // The collision re-check under the lock is unnecessary: only this
    // thread owns the Building slot for Key, and hits never insert.
    Lru.push_front(Key);
    try {
      Map[Key] = MapEntry{Art, Lru.begin()};
    } catch (...) {
      Lru.pop_front(); // keep the LRU list in sync with the map
      throw;           // the guard publishes the failure
    }
    BytesUsed += Art->Charged.load(std::memory_order_relaxed);
    Building.erase(Key);
    evictOverBudgetLocked(Key);
  }
  Guard.Armed = false;
  {
    std::lock_guard<std::mutex> L(Inf->Mu);
    Inf->Done = true;
    Inf->Art = Art;
  }
  Inf->Cv.notify_all();
  return Art;
}
