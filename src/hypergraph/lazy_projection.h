/// \file
/// On-the-fly projected-graph computation with budgeted memoization
/// (paper Section 3.4, evaluated in Figure 11) — the memory-bounded
/// alternative to materializing a full ProjectedGraph.
///
/// A materialized projection costs O(|E| + Σ_e |N_e|) memory; on dense
/// hypergraphs that footprint dwarfs the input. The lazy variant instead
/// computes hyperedge neighborhoods on demand — one stamped-counter sweep
/// over the edge's incidence lists, exactly the `ProjectedGraph::Build`
/// inner step — and memoizes the hottest ones within a byte budget.
/// Whether a neighborhood is served from the memo or recomputed it is
/// always exact, so any sampler running on the lazy projection returns
/// **bit-identical estimates** to the same sampler on a materialized
/// projection (same seed, same sample count). Only the run *statistics*
/// (hits, recomputes, bytes) depend on the memo state.
///
/// The surface is ConcurrentLazyProjection: a sharded memo table for
/// parallel samplers. Each shard is one LazyProjection memo behind its
/// own lock; workers copy neighborhoods out under that lock and keep
/// per-thread statistics, so they never serialize on one mutex. The
/// Figure-11 eviction ablation runs it with one shard at one thread,
/// where the statistics are deterministic.
///
/// The full memory contract — what each projection policy materializes,
/// the admission rule, byte accounting, determinism caveats — is
/// documented in docs/MEMORY.md.
#ifndef MOCHY_HYPERGRAPH_LAZY_PROJECTION_H_
#define MOCHY_HYPERGRAPH_LAZY_PROJECTION_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "hypergraph/spill_log.h"

namespace mochy {

/// Which memoized neighborhood to drop when the byte budget is exhausted
/// (equivalently: which newcomers to admit). kWedgeAdmission is the
/// production default; the others are retained for the Figure-11 ablation.
enum class EvictionPolicy {
  /// Admission score = expected reuse × recompute cost: |N_e| (the
  /// wedge-index projected degree — every sampled hyperwedge incident to
  /// e reads N_e) times the incidence-sweep cost Σ_{v∈e} d(v). Entries
  /// with the lowest score are evicted first, and a newcomer is declined
  /// when the cheapest resident outranks it, so the memo converges on the
  /// hubs whose recomputation is most expensive and most frequent.
  kWedgeAdmission,
  /// Keep the highest projected-degree neighborhoods (the paper's
  /// best-performing Figure-11 policy; reuse-only, ignores recompute
  /// cost).
  kDegreePriority,
  /// Evict the least recently used neighborhood.
  kLru,
  /// Evict a uniformly random memoized neighborhood.
  kRandom,
};

/// Stable lowercase name used in flags and reports: "wedge-admission",
/// "degree", "lru", "random".
const char* EvictionPolicyName(EvictionPolicy policy);

/// Default memoization budget when the caller does not set one: 256 MiB.
/// Large enough to fully memoize every example dataset in this repo,
/// small enough that an engine run on a huge graph stays memory-bounded
/// instead of silently growing an unbounded cache.
inline constexpr uint64_t kDefaultLazyMemoBudgetBytes = 256ull << 20;

struct LazyProjectionOptions {
  /// Maximum bytes of memoized neighborhoods, counted per EntryBytes()
  /// (payload + fixed bookkeeping overhead). 0 disables memoization
  /// entirely — every access recomputes — which is a legal low-memory
  /// mode. The default is the explicit, documented
  /// kDefaultLazyMemoBudgetBytes, NOT unbounded.
  uint64_t memory_budget_bytes = kDefaultLazyMemoBudgetBytes;
  /// Admission/eviction rule for the memo (see EvictionPolicy).
  EvictionPolicy policy = EvictionPolicy::kWedgeAdmission;
  /// When non-empty, enables the disk tier: neighborhoods that the byte
  /// budget evicts (or declines to admit) are appended to per-shard
  /// spill logs under this directory (see hypergraph/spill_log.h and
  /// docs/STORAGE.md) and re-admitted from disk on the next touch
  /// instead of recomputed. The logs are per-engine-lifetime scratch —
  /// created truncated, unlinked on shutdown. Empty (the default)
  /// disables spilling entirely.
  std::string spill_dir;
};

/// Bytes one memoized neighborhood of `num_neighbors` entries is
/// accounted as: payload plus a fixed per-entry bookkeeping charge
/// (hash-map node, policy handles). This is the unit `memory_budget_bytes`
/// is denominated in; see docs/MEMORY.md for the full accounting model.
inline uint64_t LazyEntryBytes(size_t num_neighbors) {
  return num_neighbors * sizeof(Neighbor) + 64;
}

/// One shard's budgeted memo of exact neighborhoods. It never computes:
/// ConcurrentLazyProjection looks entries up (TryGet), computes misses
/// outside the shard lock and offers them back (Admit). Not thread-safe;
/// the owning shard's lock guards every call.
class LazyProjection {
 public:
  /// A memo of at most `options.memory_budget_bytes` over `graph`.
  /// `degrees` is the wedge index of `graph` (ComputeProjectedDegrees),
  /// which kWedgeAdmission scores entries by; `seed` drives kRandom.
  /// Entries the budget pushes out are appended to `spill` when it is
  /// non-null. All referents must outlive the memo.
  LazyProjection(const Hypergraph& graph, const ProjectedDegrees& degrees,
                 const LazyProjectionOptions& options, uint64_t seed,
                 SpillLog* spill);

  /// Memo lookup only — no compute. On a hit copies the neighborhood into
  /// `*out`, updates LRU recency, and returns true. Hit/miss accounting
  /// is the caller's job: ConcurrentLazyProjection counts in the
  /// caller's per-worker Stats.
  bool TryGet(EdgeId e, std::vector<Neighbor>* out);

  /// Offers a freshly computed neighborhood of `e` to the memo; the
  /// admission/eviction policy decides whether it is kept. No-op when `e`
  /// is already resident. Does not count as a hit or a computation.
  void Admit(EdgeId e, std::span<const Neighbor> neighbors);

  /// Counters of this projection's activity. `bytes_used`/`peak_bytes`
  /// follow the LazyEntryBytes() accounting.
  struct Stats {
    uint64_t computations = 0;  ///< neighborhoods computed from scratch
    uint64_t memo_hits = 0;     ///< served from the memo
    uint64_t evictions = 0;     ///< memoized entries dropped
    uint64_t bytes_used = 0;    ///< current memo footprint
    uint64_t peak_bytes = 0;    ///< high-water memo footprint
    // Disk-tier counters (0 unless a spill_dir is configured). The first
    // two are memo-side (counted where the memo spills); the last
    // two are caller-side like memo_hits, accumulated per worker by
    // ConcurrentLazyProjection::Neighborhood.
    uint64_t spills = 0;           ///< neighborhoods appended to spill logs
    uint64_t spill_bytes = 0;      ///< neighbor payload bytes spilled
    uint64_t spill_readmits = 0;   ///< served by re-admitting from disk
    uint64_t spill_fallbacks = 0;  ///< spill read failed -> recomputed

    /// memo_hits / (memo_hits + computations); 0 when nothing was
    /// accessed.
    double HitRate() const;
  };
  /// Memo-side statistics: evictions, bytes, spills. Hits and
  /// computations stay 0 here; the callers count them.
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::vector<Neighbor> neighbors;
    uint64_t bytes = 0;
    // Policy bookkeeping handles.
    std::multimap<uint64_t, EdgeId>::iterator rank_it;
    std::list<EdgeId>::iterator lru_it;
    size_t random_index = 0;
  };

  /// Admission rank of a neighborhood of `e` under the active policy:
  /// kWedgeAdmission -> reuse × recompute cost, kDegreePriority ->
  /// degree. Higher ranks are kept longer.
  uint64_t RankOf(EdgeId e, size_t num_neighbors) const;
  void Evict(EdgeId victim);
  /// Appends `e` to the spill log (if any) and accounts it in stats_.
  void MaybeSpill(EdgeId e, std::span<const Neighbor> neighbors);

  const Hypergraph* graph_;
  const ProjectedDegrees* degrees_;
  LazyProjectionOptions options_;
  Rng rng_;

  std::unordered_map<EdgeId, Entry> memo_;
  std::multimap<uint64_t, EdgeId> rank_order_;  // ascending admission rank
  std::list<EdgeId> lru_order_;                 // front = most recent
  std::vector<EdgeId> random_pool_;

  SpillLog* spill_;  // null unless the disk tier is attached

  Stats stats_;
};

/// Thread-safe lazy projection for parallel samplers: the memo is split
/// into shards (edge id modulo shard count, each with its own mutex and
/// budget slice), misses are computed outside any lock with the caller's
/// NeighborhoodBuilder, and hit/recompute counters live in caller-owned
/// per-thread Stats — concurrent workers only contend on a shard when
/// they touch the same slice of the id space at the same moment.
///
/// Counts computed through this class are bit-identical to a materialized
/// projection regardless of shard count, worker count, or interleaving
/// (neighborhoods are always exact); the statistics are not deterministic
/// under concurrency — see docs/MEMORY.md.
class ConcurrentLazyProjection {
 public:
  /// Validating factory. `graph` and `degrees` (the wedge index used for
  /// admission scoring and wedge sampling) must outlive the projection.
  /// `num_shards` 0 picks a default sized to the worker count. When
  /// `options.spill_dir` is set the directory is created and one spill
  /// log per shard is opened; filesystem failures surface as kIOError.
  static Result<std::unique_ptr<ConcurrentLazyProjection>> Create(
      const Hypergraph& graph, const ProjectedDegrees& degrees,
      const LazyProjectionOptions& options, size_t num_shards = 0);

  /// Copies the exact neighborhood of `e` into `*out` (sorted by id).
  /// On a RAM miss the shard's spill log (when configured) is probed
  /// first — a verified record is re-admitted instead of recomputed; a
  /// missing or corrupt record falls back to computing with `builder`
  /// outside the shard lock, and the result is offered to the shard's
  /// memo. `local_stats` accumulates this caller's hits/computations/
  /// readmits/fallbacks; pass one per worker and merge with
  /// shared_stats() afterwards.
  void Neighborhood(EdgeId e, NeighborhoodBuilder& builder,
                    std::vector<Neighbor>* out,
                    LazyProjection::Stats* local_stats);

  /// Memo-side statistics summed over shards: evictions, bytes resident,
  /// peak bytes, spills/spill_bytes. Hits/computations (and the
  /// caller-side readmit/fallback counters) are zero here — they live in
  /// the per-worker Stats fed to Neighborhood().
  LazyProjection::Stats shared_stats() const;

  /// Number of memo shards.
  size_t num_shards() const { return shards_.size(); }

  /// The hypergraph whose neighborhoods this memo serves.
  const Hypergraph& graph() const { return *graph_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    // Disk tier: null unless options.spill_dir is set. The index
    // (Append/Lookup/Invalidate) is guarded by `mu`; ReadRecord preads
    // immutable extents outside the lock, mirroring how misses compute
    // outside the lock.
    std::unique_ptr<SpillLog> spill;
    LazyProjection lazy;  // spills into `spill`, hence declared after it
    Shard(const Hypergraph& graph, const ProjectedDegrees& degrees,
          const LazyProjectionOptions& options, uint64_t seed,
          std::unique_ptr<SpillLog> log)
        : spill(std::move(log)),
          lazy(graph, degrees, options, seed, spill.get()) {}
  };

  ConcurrentLazyProjection(const Hypergraph& graph,
                           const ProjectedDegrees& degrees,
                           const LazyProjectionOptions& options,
                           std::vector<std::unique_ptr<SpillLog>> logs);

  const Hypergraph* graph_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Merges one sampler run's lazy statistics: the memo-side counters from
/// `lazy.shared_stats()` (evictions, bytes resident, peak, spills) plus
/// the summed per-worker hit/recompute/readmit/fallback counters. The
/// one merge rule both lazy kernels (mochy_a, mochy_aplus) report
/// through.
LazyProjection::Stats MergeLazyRunStats(
    const ConcurrentLazyProjection& lazy,
    std::span<const LazyProjection::Stats> local_stats);

}  // namespace mochy

#endif  // MOCHY_HYPERGRAPH_LAZY_PROJECTION_H_
