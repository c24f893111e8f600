//===- driver/ArtifactCache.h - Shared-prefix artifact cache ----*- C++ -*-===//
//
// Part of rpcc, a reproduction of "Register Promotion in C Programs"
// (Cooper & Lu, PLDI 1997). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cache over the configuration-independent pipeline prefix. The
/// suite compiles each benchmark under four configurations that differ only
/// after alias analysis, the fuzz oracle compiles one program under dozens,
/// and rpserved sees the same sources posted again and again. The frontend
/// depends only on the source text and alias analysis only on (source,
/// analysis kind), so the cache runs the frontend once per source and each
/// analysis once per (source, kind); every compile then forks the cached
/// analyzed module with compileSuffix().
///
/// Entries are keyed by *content* (a hash of the source bytes), so callers
/// never name programs and two callers posting the same bytes share one
/// artifact. Three mechanisms:
///
///  - **Request coalescing.** Concurrent requests for a source not yet
///    cached attach to the one in-flight build (a Building-map entry with a
///    condition variable) instead of racing N frontends for the same
///    program. The second analysis kind is built lazily on first demand,
///    coalesced by a per-artifact once-flag.
///
///  - **LRU with a byte budget.** Completed artifacts are charged an
///    estimate of their footprint (source + IL ops across the frontend and
///    analyzed modules) and live on an LRU list; inserting past the budget
///    evicts whole least-recently-used entries. Evicted artifacts die when
///    their last user drops the shared_ptr, so eviction never invalidates a
///    handle. The suite and the fuzzer pass SIZE_MAX: they never evict.
///
///  - **Collision safety.** A hit compares the stored source bytes; on a
///    (theoretical) 128-bit collision the request is compiled privately and
///    never cached, so a collision can cost time but never serve the wrong
///    program.
///
/// Artifacts are immutable after each stage builds (fork-never-share):
/// consumers fork the analyzed module and never mutate the cached copy.
///
/// Thread-safe throughout. Metrics, for every caller: cache.hits and
/// cache.misses (a miss is a get() that ran the frontend or an analysis),
/// cache.coalesced, cache.evictions, the cache.bytes / cache.entries /
/// cache.inflight gauges, and the compile.frontend_us / compile.analysis_us
/// stage latencies.
///
//===----------------------------------------------------------------------===//

#ifndef RPCC_DRIVER_ARTIFACTCACHE_H
#define RPCC_DRIVER_ARTIFACTCACHE_H

#include "driver/Compiler.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace rpcc {

/// One program's cached prefix: the frontend artifact plus lazily built
/// analyzed modules (index 0 = ModRef, 1 = PointsTo). Stages are immutable
/// once built; consumers fork with compileSuffix().
struct PrefixArtifact {
  std::string Key;    ///< 32-hex content hash
  std::string Source; ///< exact bytes, for collision rejection
  FrontendArtifact FA;
  std::once_flag AnalyzedOnce[2];
  AnalyzedModule AM[2];
  /// Bytes currently charged against the cache budget for this artifact.
  std::atomic<size_t> Charged{0};

  const AnalyzedModule &analyzed(AnalysisKind Kind) const {
    return AM[Kind == AnalysisKind::PointsTo];
  }
};

class ArtifactCache {
public:
  /// How one get() was satisfied; exactly one of Hit/Miss/Coalesced/Bypass
  /// is set. Built is orthogonal to them.
  struct Outcome {
    bool Hit = false;       ///< served from the LRU
    bool Miss = false;      ///< this call built and published the artifact
    bool Coalesced = false; ///< attached to another call's in-flight build
    bool Bypass = false;    ///< hash collision; compiled privately, uncached
    /// This call ran the frontend or an analysis, including a lazily built
    /// second analysis kind on a hit. cache.misses counts exactly these
    /// calls and cache.hits the rest.
    bool Built = false;
  };

  explicit ArtifactCache(size_t BudgetBytes);
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache &) = delete;
  ArtifactCache &operator=(const ArtifactCache &) = delete;

  /// Returns the artifact for \p Source with analysis \p Kind built,
  /// coalescing concurrent builds and recording how the request was
  /// satisfied. \p SO applies to the stages this call builds; an analysis
  /// span label gets "/modref" or "/points-to" appended. Never returns
  /// null; a source that fails to compile yields an artifact with FA.Ok /
  /// AM[kind].Ok false (cached like any other — a deterministic compile
  /// error is worth remembering too), and compileSuffix() on it returns
  /// those errors.
  std::shared_ptr<PrefixArtifact> get(const std::string &Source,
                                      AnalysisKind Kind, Outcome &Out,
                                      const StageOptions &SO = {});

  /// Looks up an already-cached artifact by its content key; null when
  /// absent. Counts neither a hit nor a miss and does not touch LRU order.
  std::shared_ptr<PrefixArtifact> peek(const std::string &Key);

  /// The 32-hex content key get() would use for \p Source.
  static std::string contentKey(const std::string &Source);

  // Accounting, for tests and /healthz.
  size_t bytes() const;
  size_t entries() const;
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  uint64_t coalesced() const {
    return Coalesced.load(std::memory_order_relaxed);
  }

private:
  struct Inflight {
    std::mutex Mu;
    std::condition_variable Cv;
    bool Done = false;
    std::shared_ptr<PrefixArtifact> Art;
  };
  struct MapEntry {
    std::shared_ptr<PrefixArtifact> Art;
    std::list<std::string>::iterator LruIt;
  };

  /// Builder path of get(): runs the frontend and \p Kind's analysis for a
  /// key this call claimed in Building, then publishes the artifact to the
  /// map and to every coalesced waiter.
  std::shared_ptr<PrefixArtifact>
  build(const std::string &Key, const std::string &Source, AnalysisKind Kind,
        const std::shared_ptr<Inflight> &Inf, const StageOptions &SO,
        Outcome &Out);

  /// Builds AM[Kind] if absent (coalesced per artifact) and charges the
  /// growth against the budget.
  void ensureAnalyzed(const std::shared_ptr<PrefixArtifact> &Art,
                      AnalysisKind Kind, const StageOptions &SO,
                      Outcome &Out);

  /// Caller holds Mu. Evicts LRU-tail entries until the budget holds,
  /// never evicting \p Keep (the entry just touched).
  void evictOverBudgetLocked(const std::string &Keep);

  /// Caller holds Mu. Folds BytesUsed / Map.size() / Building.size() into
  /// the cache.* gauges as deltas against the last published values (the
  /// registry's Gauge handle is delta-only).
  void publishGaugesLocked();

  const size_t Budget;
  mutable std::mutex Mu;
  size_t BytesUsed = 0;
  int64_t PubBytes = 0, PubEntries = 0, PubInflight = 0;
  std::list<std::string> Lru; ///< front = most recently used
  std::unordered_map<std::string, MapEntry> Map;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> Building;

  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Coalesced{0};
};

} // namespace rpcc

#endif // RPCC_DRIVER_ARTIFACTCACHE_H
