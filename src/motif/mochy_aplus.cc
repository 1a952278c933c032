#include "motif/mochy_aplus.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// Visits every h-motif instance containing the wedge {e_i, e_j} and
/// increments raw counts. arena.edge_weight holds w(e_j, ·) and
/// arena.edge_weight2 w(e_i, ·) for the duration of the call; the node
/// sets carry e_i and e_i ∩ e_j for the stamped triple intersections.
void ProcessWedge(const Hypergraph& graph, EdgeId ei, EdgeId ej,
                  uint64_t w_ij, std::span<const Neighbor> nbrs_i,
                  std::span<const Neighbor> nbrs_j, const uint32_t* size_of,
                  ScratchArena& arena, MotifCounts& raw) {
  const uint64_t size_i = size_of[ei];
  const uint64_t size_j = size_of[ej];
  StampedWeights& w_i = arena.edge_weight2;  // w(e_i, ·) over N(e_i)\{e_j}
  StampedWeights& w_j = arena.edge_weight;   // w(e_j, ·) over N(e_j)
  w_j.NewEpoch();
  for (const Neighbor& n : nbrs_j) w_j.Set(n.edge, n.weight);
  w_i.NewEpoch();
  // e_i's nodes and e_i ∩ e_j are scattered lazily: only wedges that reach
  // a closed triple pay for the node passes.
  bool pair_ready = false;

  // e_k in N(e_i): w_ik from the list, w_jk from the stamp.
  for (const Neighbor& n : nbrs_i) {
    const EdgeId ek = n.edge;
    if (ek == ej) continue;
    w_i.Set(ek, n.weight);
    const uint64_t w_ik = n.weight;
    const uint64_t w_jk = w_j.Get(ek);
    const uint64_t size_k = size_of[ek];
    uint64_t w_ijk = 0;
    if (w_jk != 0) {
      if (!pair_ready) {
        internal::StampHubNodes(graph, ei, arena);
        internal::StampPairNodes(graph, ej, arena);
        pair_ready = true;
      }
      w_ijk = internal::StampedTripleIntersection(graph, ek, arena);
    }
    // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
    const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                       w_ik, w_ijk);
    if (id != 0) raw[id] += 1.0;
  }
  // e_k in N(e_j) \ N(e_i): w_ik = 0, hence open with hub e_j.
  for (const Neighbor& n : nbrs_j) {
    const EdgeId ek = n.edge;
    if (ek == ei || w_i.Test(ek)) continue;
    const int id = ClassifyMotifOrZero(size_i, size_j, size_of[ek], w_ij,
                                       /*w_jk=*/n.weight, /*w_ik=*/0,
                                       /*w_ijk=*/0);
    if (id != 0) raw[id] += 1.0;
  }
}

/// Applies the Theorem-4 rescaling: raw counts -> unbiased estimates.
void RescaleWedgeEstimates(uint64_t num_wedges, uint64_t num_samples,
                           MotifCounts* counts) {
  const double wedges = static_cast<double>(num_wedges);
  const double r = static_cast<double>(num_samples);
  for (int id = 1; id <= kNumHMotifs; ++id) {
    const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
    (*counts)[id] *= wedges / (wedges_per_instance * r);
  }
}

}  // namespace

MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  MotifCounts total;
  const uint64_t wedges = projection.num_wedges();
  if (m == 0 || wedges == 0 || options.num_samples == 0) return total;

  size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  if (num_threads > options.num_samples) {
    num_threads = static_cast<size_t>(options.num_samples);
  }
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);

  auto worker = [&](size_t thread) {
    ScratchArena& arena = LocalScratchArena();
    arena.EnsureEdges(m);
    arena.EnsureNodes(graph.num_nodes());
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      const uint64_t k = rng.UniformInt(wedges);
      const auto [ei, picked] = projection.WedgeAt(k);
      MOCHY_DCHECK(picked.weight > 0);
      ProcessWedge(graph, ei, picked.edge, picked.weight,
                   projection.neighbors(ei), projection.neighbors(picked.edge),
                   size_of.data(), arena, partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  return total;
}

namespace {

/// Maps the uniform wedge index `k` to its wedge (e_i within-suffix rank):
/// binary search of the wedge prefix sums. The `within`-th neighbor of
/// e_i with id > e_i — a suffix of the sorted neighborhood, identical to
/// ProjectedGraph::WedgeAt on the materialized structure — completes the
/// pick once the neighborhood is in hand.
std::pair<EdgeId, uint64_t> PickWedgeSource(const ProjectedDegrees& degrees,
                                            uint64_t k) {
  const auto it = std::upper_bound(degrees.wedge_prefix.begin(),
                                   degrees.wedge_prefix.end(), k);
  const size_t e = static_cast<size_t>(it - degrees.wedge_prefix.begin()) - 1;
  return {static_cast<EdgeId>(e), k - degrees.wedge_prefix[e]};
}

/// The `within`-th neighbor of `ei` with id > ei in the sorted
/// neighborhood `nbrs`.
const Neighbor& PickWedgeTarget(std::span<const Neighbor> nbrs, EdgeId ei,
                                uint64_t within) {
  const auto suffix = std::upper_bound(
      nbrs.begin(), nbrs.end(), ei,
      [](EdgeId lhs, const Neighbor& rhs) { return lhs < rhs.edge; });
  return *(suffix + static_cast<int64_t>(within));
}

Status CheckWedgeIndex(const Hypergraph& graph,
                       const ProjectedDegrees& degrees) {
  if (degrees.wedge_prefix.size() != graph.num_edges() + 1) {
    return Status::InvalidArgument(
        "wedge index does not match the hypergraph (prefix for " +
        std::to_string(degrees.wedge_prefix.size()) + " entries, graph has " +
        std::to_string(graph.num_edges()) + " edges)");
  }
  return Status::OK();
}

}  // namespace

Result<MotifCounts> CountMotifsWedgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAPlusOptions& options,
    LazyProjection::Stats* stats_out) {
  if (Status s = CheckWedgeIndex(graph, degrees); !s.ok()) return s;
  const size_t m = graph.num_edges();
  MotifCounts total;
  const uint64_t wedges = degrees.num_wedges;
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  if (m == 0 || wedges == 0 || options.num_samples == 0) return total;

  size_t num_threads =
      options.num_threads == 0 ? DefaultThreadCount() : options.num_threads;
  if (num_threads > options.num_samples) {
    num_threads = static_cast<size_t>(options.num_samples);
  }
  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  std::vector<MotifCounts> partial(num_threads);
  std::vector<LazyProjection::Stats> local_stats(num_threads);
  const Rng base(options.seed);

  auto worker = [&](size_t thread) {
    ScratchArena& arena = LocalScratchArena();
    arena.EnsureEdges(m);
    arena.EnsureNodes(graph.num_nodes());
    NeighborhoodBuilder builder(m);
    // Copies: memo references cannot cross the shard lock, and another
    // worker's eviction could invalidate them anyway.
    std::vector<Neighbor> nbrs_i, nbrs_j;
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      const uint64_t k = rng.UniformInt(wedges);
      const auto [ei, within] = PickWedgeSource(degrees, k);
      lazy.Neighborhood(ei, builder, &nbrs_i, &local_stats[thread]);
      const Neighbor picked = PickWedgeTarget(nbrs_i, ei, within);
      lazy.Neighborhood(picked.edge, builder, &nbrs_j, &local_stats[thread]);
      ProcessWedge(graph, ei, picked.edge, picked.weight,
                   std::span<const Neighbor>(nbrs_i.data(), nbrs_i.size()),
                   std::span<const Neighbor>(nbrs_j.data(), nbrs_j.size()),
                   size_of.data(), arena, partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return total;
}

Result<MotifCounts> CountMotifsWedgeSampleOnTheFly(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    const MochyAPlusOptions& options,
    const LazyProjectionOptions& lazy_options,
    LazyProjection::Stats* stats_out) {
  if (Status s = CheckWedgeIndex(graph, degrees); !s.ok()) return s;
  auto lazy = LazyProjection::Create(graph, lazy_options, &degrees);
  if (!lazy.ok()) return lazy.status();
  const size_t m = graph.num_edges();
  MotifCounts total;
  const uint64_t wedges = degrees.num_wedges;
  if (stats_out != nullptr) *stats_out = lazy.value().stats();
  if (m == 0 || wedges == 0 || options.num_samples == 0) return total;

  const std::vector<uint32_t> size_of = internal::HoistEdgeSizes(graph);
  ScratchArena& arena = LocalScratchArena();
  arena.EnsureEdges(m);
  arena.EnsureNodes(graph.num_nodes());
  std::vector<Neighbor> nbrs_i;  // copy: the lazy reference is transient
  const Rng base(options.seed);
  for (uint64_t n = 0; n < options.num_samples; ++n) {
    Rng rng = base.Fork(n);
    const uint64_t k = rng.UniformInt(wedges);
    const auto [ei, within] = PickWedgeSource(degrees, k);
    {
      const std::vector<Neighbor>& ref = lazy.value().Neighborhood(ei);
      nbrs_i.assign(ref.begin(), ref.end());
    }
    const Neighbor picked = PickWedgeTarget(nbrs_i, ei, within);
    const std::vector<Neighbor>& nbrs_j =
        lazy.value().Neighborhood(picked.edge);
    ProcessWedge(graph, ei, picked.edge, picked.weight,
                 std::span<const Neighbor>(nbrs_i.data(), nbrs_i.size()),
                 std::span<const Neighbor>(nbrs_j.data(), nbrs_j.size()),
                 size_of.data(), arena, total);
  }
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  if (stats_out != nullptr) *stats_out = lazy.value().stats();
  return total;
}

}  // namespace mochy
