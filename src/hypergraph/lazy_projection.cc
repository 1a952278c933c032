#include "hypergraph/lazy_projection.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"

namespace mochy {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kWedgeAdmission:
      return "wedge-admission";
    case EvictionPolicy::kDegreePriority:
      return "degree";
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kRandom:
      return "random";
  }
  return "unknown";
}

double LazyProjection::Stats::HitRate() const {
  const uint64_t accesses = memo_hits + computations;
  return accesses == 0 ? 0.0
                       : static_cast<double>(memo_hits) /
                             static_cast<double>(accesses);
}

LazyProjection::LazyProjection(const Hypergraph& graph,
                               const ProjectedDegrees& degrees,
                               const LazyProjectionOptions& options,
                               uint64_t seed, SpillLog* spill)
    : graph_(&graph),
      degrees_(&degrees),
      options_(options),
      rng_(seed),
      spill_(spill) {}

uint64_t LazyProjection::RankOf(EdgeId e, size_t num_neighbors) const {
  switch (options_.policy) {
    case EvictionPolicy::kWedgeAdmission: {
      // Expected reuse × recompute cost. The reuse proxy is the projected
      // degree |N_e| — under uniform hyperwedge sampling, a sample reads
      // N_e with probability |N_e|/|∧| — taken from the wedge index.
      MOCHY_DCHECK(degrees_->degree[e] == num_neighbors);
      return uint64_t{degrees_->degree[e]} *
             NeighborhoodBuilder::SweepCost(*graph_, e);
    }
    case EvictionPolicy::kDegreePriority:
      return num_neighbors;
    case EvictionPolicy::kLru:
    case EvictionPolicy::kRandom:
      return 0;
  }
  return 0;
}

bool LazyProjection::TryGet(EdgeId e, std::vector<Neighbor>* out) {
  auto it = memo_.find(e);
  if (it == memo_.end()) return false;
  if (options_.policy == EvictionPolicy::kLru) {
    lru_order_.erase(it->second.lru_it);
    lru_order_.push_front(e);
    it->second.lru_it = lru_order_.begin();
  }
  out->assign(it->second.neighbors.begin(), it->second.neighbors.end());
  return true;
}

void LazyProjection::MaybeSpill(EdgeId e,
                                std::span<const Neighbor> neighbors) {
  if (spill_ != nullptr && spill_->Append(e, neighbors)) {
    ++stats_.spills;
    stats_.spill_bytes += neighbors.size() * sizeof(Neighbor);
  }
}

void LazyProjection::Admit(EdgeId e, std::span<const Neighbor> neighbors) {
  // Every path that leaves `e` non-resident offers it to the disk tier
  // instead: the spill log re-serves what the RAM budget cannot hold.
  if (options_.memory_budget_bytes == 0) {
    MaybeSpill(e, neighbors);
    return;
  }
  if (memo_.find(e) != memo_.end()) return;
  const uint64_t bytes = LazyEntryBytes(neighbors.size());
  if (bytes > options_.memory_budget_bytes) {  // never fits
    MaybeSpill(e, neighbors);
    return;
  }
  const uint64_t rank = RankOf(e, neighbors.size());

  // Rank policies decide admission before touching the memo: the
  // newcomer is admitted only if the strictly-lower-ranked residents
  // free enough room (ties keep residents). Checking first avoids
  // evicting low-ranked entries and then declining anyway — which would
  // shrink the memo for no gain.
  if (options_.policy == EvictionPolicy::kWedgeAdmission ||
      options_.policy == EvictionPolicy::kDegreePriority) {
    uint64_t reclaimable =
        options_.memory_budget_bytes - stats_.bytes_used;  // free room
    for (auto it = rank_order_.begin();
         reclaimable < bytes && it != rank_order_.end() && it->first < rank;
         ++it) {
      reclaimable += memo_[it->second].bytes;
    }
    if (reclaimable < bytes) {  // newcomer loses
      MaybeSpill(e, neighbors);
      return;
    }
  }

  // Free space per policy until the new entry fits.
  while (stats_.bytes_used + bytes > options_.memory_budget_bytes) {
    MOCHY_DCHECK(!memo_.empty());
    EdgeId victim = kInvalidEdge;
    switch (options_.policy) {
      case EvictionPolicy::kWedgeAdmission:
      case EvictionPolicy::kDegreePriority: {
        const auto lowest = rank_order_.begin();
        MOCHY_DCHECK(lowest->first < rank);  // guaranteed by the pre-check
        victim = lowest->second;
        break;
      }
      case EvictionPolicy::kLru:
        victim = lru_order_.back();
        break;
      case EvictionPolicy::kRandom:
        victim = random_pool_[rng_.UniformInt(random_pool_.size())];
        break;
    }
    Evict(victim);
  }

  Entry entry;
  entry.neighbors.assign(neighbors.begin(), neighbors.end());
  entry.bytes = bytes;
  auto [it, inserted] = memo_.emplace(e, std::move(entry));
  MOCHY_DCHECK(inserted);
  stats_.bytes_used += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_used);
  switch (options_.policy) {
    case EvictionPolicy::kWedgeAdmission:
    case EvictionPolicy::kDegreePriority:
      it->second.rank_it = rank_order_.emplace(rank, e);
      break;
    case EvictionPolicy::kLru:
      lru_order_.push_front(e);
      it->second.lru_it = lru_order_.begin();
      break;
    case EvictionPolicy::kRandom:
      it->second.random_index = random_pool_.size();
      random_pool_.push_back(e);
      break;
  }
}

void LazyProjection::Evict(EdgeId victim) {
  auto it = memo_.find(victim);
  MOCHY_DCHECK(it != memo_.end());
  MaybeSpill(victim, it->second.neighbors);
  stats_.bytes_used -= it->second.bytes;
  ++stats_.evictions;
  switch (options_.policy) {
    case EvictionPolicy::kWedgeAdmission:
    case EvictionPolicy::kDegreePriority:
      rank_order_.erase(it->second.rank_it);
      break;
    case EvictionPolicy::kLru:
      lru_order_.erase(it->second.lru_it);
      break;
    case EvictionPolicy::kRandom: {
      const size_t idx = it->second.random_index;
      random_pool_[idx] = random_pool_.back();
      memo_[random_pool_[idx]].random_index = idx;
      random_pool_.pop_back();
      break;
    }
  }
  memo_.erase(it);
}

Result<std::unique_ptr<ConcurrentLazyProjection>>
ConcurrentLazyProjection::Create(const Hypergraph& graph,
                                 const ProjectedDegrees& degrees,
                                 const LazyProjectionOptions& options,
                                 size_t num_shards) {
  if (degrees.degree.size() != graph.num_edges()) {
    return Status::InvalidArgument(
        "wedge index does not match the hypergraph (degrees for " +
        std::to_string(degrees.degree.size()) + " edges, graph has " +
        std::to_string(graph.num_edges()) + ")");
  }
  if (num_shards == 0) {
    // Enough shards that workers rarely collide, but never so many that a
    // small budget is diluted below one useful slice (~64 KiB) per shard.
    num_shards = std::min<size_t>(64, std::max<size_t>(1, DefaultThreadCount() * 2));
    if (options.memory_budget_bytes > 0) {
      const uint64_t slices =
          std::max<uint64_t>(1, options.memory_budget_bytes / (64ull << 10));
      num_shards = static_cast<size_t>(
          std::min<uint64_t>(num_shards, slices));
    }
  }
  std::vector<std::unique_ptr<SpillLog>> logs(num_shards);
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
    if (ec) {
      return Status::IOError("cannot create spill directory " +
                             options.spill_dir + ": " + ec.message());
    }
    // Unique log names even when several engines share one spill_dir in
    // one process (e.g. BatchRunner items).
    static std::atomic<uint64_t> instance_counter{0};
    const uint64_t instance = instance_counter.fetch_add(1);
    for (size_t s = 0; s < num_shards; ++s) {
      const std::string path = options.spill_dir + "/mochy_spill_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(instance) + "_shard" +
                               std::to_string(s) + ".spill";
      MOCHY_ASSIGN_OR_RETURN(logs[s], SpillLog::Create(path));
    }
  }
  return std::unique_ptr<ConcurrentLazyProjection>(
      new ConcurrentLazyProjection(graph, degrees, options, std::move(logs)));
}

ConcurrentLazyProjection::ConcurrentLazyProjection(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    const LazyProjectionOptions& options,
    std::vector<std::unique_ptr<SpillLog>> logs)
    : graph_(&graph) {
  LazyProjectionOptions shard_options = options;
  // Split the budget across shards; each shard enforces its slice
  // independently, so the sum never exceeds the configured budget.
  shard_options.memory_budget_bytes = options.memory_budget_bytes / logs.size();
  shards_.reserve(logs.size());
  for (size_t s = 0; s < logs.size(); ++s) {
    // kRandom draws its victims from a per-shard stream seeded 7 + shard.
    shards_.push_back(std::make_unique<Shard>(graph, degrees, shard_options,
                                              7 + s, std::move(logs[s])));
  }
}

void ConcurrentLazyProjection::Neighborhood(
    EdgeId e, NeighborhoodBuilder& builder, std::vector<Neighbor>* out,
    LazyProjection::Stats* local_stats) {
  Shard& shard = *shards_[e % shards_.size()];
  SpillLog::RecordRef spill_ref;
  bool spilled = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.lazy.TryGet(e, out)) {
      ++local_stats->memo_hits;
      return;
    }
    if (shard.spill != nullptr) spilled = shard.spill->Lookup(e, &spill_ref);
  }
  if (spilled) {
    // Disk tier: a spilled extent is immutable once indexed, so the
    // pread-and-verify runs outside the lock, like a computed miss.
    if (shard.spill->ReadRecord(spill_ref, e, out)) {
      ++local_stats->spill_readmits;
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.lazy.Admit(e, *out);
      return;
    }
    ++local_stats->spill_fallbacks;  // corrupt/torn record: recompute
  }
  // Miss: compute outside the lock with the caller's scratch, then offer
  // the result to the shard (a racing worker may have admitted `e`
  // meanwhile; Admit is a no-op then).
  builder.Compute(*graph_, e, out);
  ++local_stats->computations;
  std::lock_guard<std::mutex> lock(shard.mu);
  if (spilled) shard.spill->Invalidate(e);  // make room for a fresh spill
  shard.lazy.Admit(e, *out);
}

LazyProjection::Stats ConcurrentLazyProjection::shared_stats() const {
  // Only the memo-side counters exist shard-side: hit/compute traffic is
  // accounted exclusively in the callers' per-worker Stats (TryGet does
  // not count, and the shard never sees the out-of-lock computes), so
  // hits/computations stay 0 as documented.
  LazyProjection::Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    const LazyProjection::Stats& s = shard->lazy.stats();
    total.bytes_used += s.bytes_used;
    total.evictions += s.evictions;
    total.peak_bytes += s.peak_bytes;
    total.spills += s.spills;
    total.spill_bytes += s.spill_bytes;
  }
  return total;
}

LazyProjection::Stats MergeLazyRunStats(
    const ConcurrentLazyProjection& lazy,
    std::span<const LazyProjection::Stats> local_stats) {
  LazyProjection::Stats merged = lazy.shared_stats();
  for (const LazyProjection::Stats& local : local_stats) {
    merged.memo_hits += local.memo_hits;
    merged.computations += local.computations;
    merged.spill_readmits += local.spill_readmits;
    merged.spill_fallbacks += local.spill_fallbacks;
  }
  return merged;
}

}  // namespace mochy
