#include "motif/mochy_aplus.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
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
  if (num_samples == 0) return;
  const double wedges = static_cast<double>(num_wedges);
  const double r = static_cast<double>(num_samples);
  for (int id = 1; id <= kNumHMotifs; ++id) {
    const double wedges_per_instance = IsOpenMotif(id) ? 2.0 : 3.0;
    (*counts)[id] *= wedges / (wedges_per_instance * r);
  }
}

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

MotifCounts CountMotifsWedgeSample(const Hypergraph& graph,
                                   const ProjectedGraph& projection,
                                   const MochyAPlusOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const uint64_t wedges = projection.num_wedges();
  MotifCounts total = internal::SampleUniformly(
      graph, wedges, options,
      [&](size_t) { return internal::ProjectedNeighborhoods(projection); },
      [&](uint64_t k, internal::ProjectedNeighborhoods& source,
          const uint32_t* size_of, ScratchArena& arena, MotifCounts& raw) {
        const auto [ei, picked] = projection.WedgeAt(k);
        MOCHY_DCHECK(picked.weight > 0);
        ProcessWedge(graph, ei, picked.edge, picked.weight, source.Outer(ei),
                     source.Inner(picked.edge), size_of, arena, raw);
      });
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  return total;
}

Result<MotifCounts> CountMotifsWedgeSampleLazy(
    const Hypergraph& graph, const ProjectedDegrees& degrees,
    ConcurrentLazyProjection& lazy, const MochyAPlusOptions& options,
    LazyProjection::Stats* stats_out) {
  if (Status s = CheckWedgeIndex(graph, degrees); !s.ok()) return s;
  const uint64_t wedges = degrees.num_wedges;
  auto total = internal::SampleLazy(
      graph, lazy, wedges, options, stats_out,
      [&](uint64_t k, internal::LazyNeighborhoods& source,
          const uint32_t* size_of, ScratchArena& arena, MotifCounts& raw) {
        const auto [ei, within] = PickWedgeSource(degrees, k);
        const std::span<const Neighbor> nbrs_i = source.Outer(ei);
        const Neighbor picked = PickWedgeTarget(nbrs_i, ei, within);
        ProcessWedge(graph, ei, picked.edge, picked.weight, nbrs_i,
                     source.Inner(picked.edge), size_of, arena, raw);
      });
  if (!total.ok()) return total.status();
  RescaleWedgeEstimates(wedges, options.num_samples, &total.value());
  return total;
}

}  // namespace mochy
