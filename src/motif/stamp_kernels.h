// The stamped MoCHy loops and the scratch helpers they share.
//
// Every exact kernel walks the same shape — fix e_i, pick e_j from N(e_i),
// then resolve every e_k — in one of two instance shapes, each kept here
// exactly once and handed an inlined sink `sink(ei, ej, ek, id)`:
//
//  - the hub loop (VisitHub, ForEachHubInstance): every instance whose
//    hub is e_i, closed ones only from their smallest hub id. MoCHy-E
//    (Algorithm 2) and MoCHy-E-ENUM (Algorithm 3) — CountMotifsExact,
//    ComputePerEdgeMotifCounts / MotifEngine::CountPerEdge and
//    EnumerateInstances — are sinks over it;
//  - the containment loop (PrepareContainment + VisitContainment): every
//    instance that contains e_i (Algorithm 4). MoCHy-A, materialized and
//    lazy, and the streaming add/remove delta are sinks over it.
//
// The samplers, MoCHy-A (Algorithm 4) and MoCHy-A+ (Algorithm 5), share
// one sampling loop, SampleUniformly, over either neighborhood source:
// the materialized projection or the sharded lazy memo (SampleLazy).
//
// Both loops rest on three dense-scratch tricks:
//
//  - hoisted edge sizes: |e| for all hyperedges in one contiguous
//    uint32_t array, so the innermost loop reads 4 bytes instead of
//    differencing two uint64 CSR offsets;
//  - stamped pair weights: e_j's projected neighborhood scattered into an
//    epoch-stamped array turns the per-pair w_jk lookup into one load;
//  - stamped triple intersections: e_i is scattered into a node set once
//    per hub, e_i ∩ e_j once per pair (lazily, first closed triple only),
//    after which |e_i ∩ e_j ∩ e_k| is a marked-count scan of e_k alone —
//    Lemma 2 with the two inner membership tests amortized to O(1).
//
// Everything here is bit-count-neutral: the kernels built on these produce
// exactly the counts of the motif/reference.h baselines.
#ifndef MOCHY_MOTIF_STAMP_KERNELS_H_
#define MOCHY_MOTIF_STAMP_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/lazy_projection.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"
#include "motif/pattern.h"

namespace mochy::internal {

/// Per-hub work estimate |N_e|² (Theorem 1's dominating term), the cost
/// vector the hub loops hand to ParallelWorkChunks.
inline std::vector<uint64_t> HubWorkEstimate(const ProjectedGraph& projection) {
  const size_t m = projection.num_edges();
  std::vector<uint64_t> cost(m);
  for (size_t e = 0; e < m; ++e) {
    const uint64_t degree = projection.degree(static_cast<EdgeId>(e));
    cost[e] = degree * degree;
  }
  return cost;
}

/// |e| for every hyperedge, hoisted into one contiguous array the inner
/// loops index directly.
inline std::vector<uint32_t> HoistEdgeSizes(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<uint32_t> sizes(m);
  for (size_t e = 0; e < m; ++e) {
    sizes[e] = static_cast<uint32_t>(graph.edge_size(static_cast<EdgeId>(e)));
  }
  return sizes;
}

/// Workers for a sampling run: `requested` (0 = DefaultThreadCount()),
/// but never more than there are samples.
inline size_t SamplingThreads(size_t requested, uint64_t num_samples) {
  const size_t threads = requested == 0 ? DefaultThreadCount() : requested;
  return static_cast<size_t>(std::min<uint64_t>(threads, num_samples));
}

/// Neighborhood source over a materialized projection: spans into it.
/// Outer(e) is the sample's own N(e_i), valid for the whole sample;
/// Inner(e) a further N(e_j), valid until the next Inner call.
class ProjectedNeighborhoods {
 public:
  explicit ProjectedNeighborhoods(const ProjectedGraph& projection)
      : projection_(&projection) {}
  std::span<const Neighbor> Outer(EdgeId e) const {
    return projection_->neighbors(e);
  }
  std::span<const Neighbor> Inner(EdgeId e) const {
    return projection_->neighbors(e);
  }

 private:
  const ProjectedGraph* projection_;
};

/// Neighborhood source over the sharded lazy memo, one per worker: a
/// NeighborhoodBuilder for misses, the worker's own Stats, and two copy
/// buffers, since memo entries cannot cross the shard lock. Outer and
/// Inner keep ProjectedNeighborhoods' lifetimes.
class LazyNeighborhoods {
 public:
  LazyNeighborhoods(ConcurrentLazyProjection& lazy,
                    LazyProjection::Stats* stats)
      : lazy_(&lazy), builder_(lazy.graph().num_edges()), stats_(stats) {}
  std::span<const Neighbor> Outer(EdgeId e) { return Fetch(e, &outer_); }
  std::span<const Neighbor> Inner(EdgeId e) { return Fetch(e, &inner_); }

 private:
  std::span<const Neighbor> Fetch(EdgeId e, std::vector<Neighbor>* out) {
    lazy_->Neighborhood(e, builder_, out, stats_);
    return *out;
  }

  ConcurrentLazyProjection* lazy_;
  NeighborhoodBuilder builder_;
  LazyProjection::Stats* stats_;
  std::vector<Neighbor> outer_, inner_;
};

/// The sampling loop of MoCHy-A and MoCHy-A+: draws `options.num_samples`
/// indices uniformly with replacement from [0, population) and calls
/// sample(k, source, size_of, arena, raw) for each, where `source` is
/// the worker's make_source(thread), `size_of` is HoistEdgeSizes and
/// `raw` the worker's partial counts. Sample n runs on worker
/// n mod threads with the RNG forked from (seed, n), and the partials
/// are summed in worker order, so the raw counts are bit-identical for
/// any thread count. `Options` is MochyAOptions or MochyAPlusOptions.
template <typename Options, typename MakeSource, typename Sample>
MotifCounts SampleUniformly(const Hypergraph& graph, uint64_t population,
                            const Options& options, MakeSource make_source,
                            Sample sample) {
  MotifCounts total;
  if (population == 0 || options.num_samples == 0) return total;
  const size_t num_threads =
      SamplingThreads(options.num_threads, options.num_samples);
  const std::vector<uint32_t> size_of = HoistEdgeSizes(graph);
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);
  ParallelWorkers(num_threads, [&](size_t thread) {
    ScratchArena& arena = LocalScratchArena();
    arena.EnsureEdges(graph.num_edges());
    arena.EnsureNodes(graph.num_nodes());
    auto source = make_source(thread);
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      sample(rng.UniformInt(population), source, size_of.data(), arena,
             partial[thread]);
    }
  });
  for (const MotifCounts& part : partial) total += part;
  return total;
}

/// SampleUniformly over the sharded lazy memo, one LazyNeighborhoods per
/// worker. `stats_out`, when set, receives the workers' counters merged
/// with the memo's (MergeLazyRunStats). InvalidArgument when `lazy` was
/// built over another hypergraph: its edge ids would overrun the
/// scratch sized for `graph`.
template <typename Options, typename Sample>
Result<MotifCounts> SampleLazy(const Hypergraph& graph,
                               ConcurrentLazyProjection& lazy,
                               uint64_t population, const Options& options,
                               LazyProjection::Stats* stats_out,
                               Sample sample) {
  if (&lazy.graph() != &graph) {
    return Status::InvalidArgument(
        "lazy projection was built over another hypergraph");
  }
  std::vector<LazyProjection::Stats> local_stats(
      SamplingThreads(options.num_threads, options.num_samples));
  const MotifCounts raw = SampleUniformly(
      graph, population, options,
      [&](size_t thread) {
        return LazyNeighborhoods(lazy, &local_stats[thread]);
      },
      sample);
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return raw;
}

/// Scatters e_i's members into arena.node_hub (fresh epoch). `Graph` is
/// Hypergraph or DynamicHypergraph (anything with edge(e)).
template <typename Graph>
void StampHubNodes(const Graph& graph, EdgeId ei, ScratchArena& arena) {
  arena.node_hub.NewEpoch();
  for (NodeId v : graph.edge(ei)) arena.node_hub.Insert(v);
}

/// Scatters e_i ∩ e_j into arena.node_pair (fresh epoch); node_hub must
/// hold e_i (StampHubNodes).
template <typename Graph>
void StampPairNodes(const Graph& graph, EdgeId ej, ScratchArena& arena) {
  arena.node_pair.NewEpoch();
  for (NodeId v : graph.edge(ej)) {
    if (arena.node_hub.Test(v)) arena.node_pair.Insert(v);
  }
}

/// |e_i ∩ e_j ∩ e_k| as a marked-count scan of e_k; node_pair must hold
/// e_i ∩ e_j (StampPairNodes).
template <typename Graph>
uint64_t StampedTripleIntersection(const Graph& graph, EdgeId ek,
                                   const ScratchArena& arena) {
  uint64_t count = 0;
  for (NodeId v : graph.edge(ek)) {
    count += arena.node_pair.Test(v) ? 1 : 0;
  }
  return count;
}

// Scattering N(e_j) costs |N_j| writes and is amortized over the pairs
// still to come in the hub's pair loop. When the tail of the pair loop is
// short and N(e_j) is huge, look w_jk up in the sorted N(e_j) instead: the
// e_k ascend, so one forward lower_bound cursor serves the whole tail.
// Identical counts, better constant.
inline bool WorthScattering(size_t neighborhood, size_t remaining_pairs) {
  return neighborhood <= 16 + 4 * remaining_pairs;
}

/// The hub loop: calls sink(ei, ej, ek, id) for every h-motif instance
/// hubbed at e_i — every pair {e_j, e_k} of N(e_i) in neighbor order,
/// closed triples only when e_i is their smallest hub id (Algorithm 2,
/// line 4). Duplicate-edge triples (id 0) never reach the sink. The
/// arena must be sized for the graph; `size_of` is HoistEdgeSizes.
template <typename Sink>
void VisitHub(const Hypergraph& graph, const ProjectedGraph& projection,
              EdgeId ei, const uint32_t* size_of, ScratchArena& arena,
              Sink sink) {
  const auto nbrs = projection.neighbors(ei);
  if (nbrs.size() < 2) return;
  const uint64_t size_i = size_of[ei];
  StampHubNodes(graph, ei, arena);

  for (size_t a = 0; a + 1 < nbrs.size(); ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ij = nbrs[a].weight;
    const uint64_t size_j = size_of[ej];
    const size_t remaining = nbrs.size() - a - 1;

    const auto nbrs_j = projection.neighbors(ej);
    const bool scattered = WorthScattering(nbrs_j.size(), remaining);
    if (scattered) {
      arena.edge_weight.NewEpoch();
      for (const Neighbor& n : nbrs_j) arena.edge_weight.Set(n.edge, n.weight);
    }
    // Unscattered: the first entry of N(e_j) not yet passed by e_k.
    auto cursor = nbrs_j.begin();
    // e_i ∩ e_j is scattered lazily: only hubs whose pair loop actually
    // reaches a closed triple pay for it.
    bool pair_ready = false;

    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      uint64_t w_jk;
      if (scattered) {
        w_jk = arena.edge_weight.Get(ek);
      } else {
        cursor = std::lower_bound(
            cursor, nbrs_j.end(), ek,
            [](const Neighbor& n, EdgeId id) { return n.edge < id; });
        w_jk = cursor != nbrs_j.end() && cursor->edge == ek ? cursor->weight
                                                             : 0;
      }
      // Count open instances at their unique hub; closed instances only
      // from the smallest hub id (Algorithm 2, line 4).
      if (w_jk != 0 && ei >= std::min(ej, ek)) continue;
      const uint64_t w_ik = nbrs[b].weight;
      const uint64_t size_k = size_of[ek];
      uint64_t w_ijk = 0;
      if (w_jk != 0) {
        if (!pair_ready) {
          StampPairNodes(graph, ej, arena);
          pair_ready = true;
        }
        w_ijk = StampedTripleIntersection(graph, ek, arena);
      }
      // Triples containing duplicated hyperedges correspond to no h-motif
      // (paper Figure 4) and yield id 0: skip them. They can occur when
      // duplicate removal is disabled (e.g. null models).
      const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                         w_ik, w_ijk);
      if (id != 0) sink(ei, ej, ek, id);
    }
  }
}

/// Runs VisitHub over every hub with `num_threads` workers (≥ 1) and
/// calls sink(thread, ei, ej, ek, id) per instance; `thread` indexes the
/// caller's per-worker state. Per-hub work is ~|N_e|² and projected
/// degrees are heavy-tailed, so static blocks balance poorly and one
/// atomic claim per hub wastes the cheap hubs: hubs are claimed in
/// chunks of near-equal Σd² work instead. One worker visits the hubs in
/// id order on the calling thread (hub-major enumeration order).
template <typename Sink>
void ForEachHubInstance(const Hypergraph& graph,
                        const ProjectedGraph& projection, size_t num_threads,
                        Sink&& sink) {
  const size_t m = graph.num_edges();
  MOCHY_CHECK(projection.num_edges() == m)
      << "projection does not match hypergraph";
  const std::vector<uint32_t> size_of = HoistEdgeSizes(graph);
  const std::vector<uint64_t> cost = HubWorkEstimate(projection);
  ParallelWorkChunks(cost, num_threads,
                     [&](size_t thread, size_t begin, size_t end) {
    ScratchArena& arena = LocalScratchArena();
    arena.EnsureEdges(m);
    arena.EnsureNodes(graph.num_nodes());
    for (size_t i = begin; i < end; ++i) {
      VisitHub(graph, projection, static_cast<EdgeId>(i), size_of.data(),
               arena,
               [&](EdgeId ei, EdgeId ej, EdgeId ek, int id) {
                 sink(thread, ei, ej, ek, id);
               });
    }
  });
}

/// First half of the containment loop: scatters N(e_i) (membership and
/// w(e_i, ·)) into arena.edge_weight2 and e_i's members into node_hub.
/// VisitContainment only bumps the edge_weight / node_pair epochs, so
/// one preparation serves any number of visited ranges on this arena.
template <typename Graph>
void PrepareContainment(const Graph& graph, EdgeId ei,
                        std::span<const Neighbor> nbrs, ScratchArena& arena) {
  arena.edge_weight2.NewEpoch();
  for (const Neighbor& n : nbrs) arena.edge_weight2.Set(n.edge, n.weight);
  StampHubNodes(graph, ei, arena);
}

/// The containment loop: calls sink(ei, ej, ek, id) for every candidate
/// triple containing e_i whose first neighbor e_j = nbrs[a] has a in
/// [begin, end) — e_k ∈ N(e_j) \ N(e_i) (open, hub e_j), then the pairs
/// {e_j, e_k} ⊆ N(e_i) with e_k after e_j in neighbor order. Disjoint
/// ranges visit disjoint triples; [0, |N(e_i)|) visits every instance
/// containing e_i exactly once (Algorithm 4). The sink also sees
/// duplicate-edge candidates (id 0) and must drop them itself.
///
/// `nbrs` is N(e_i) and must stay valid for the whole call; `nbrs_of(ej)`
/// returns N(e_j), valid until its next call; `size_of(e)` returns |e|.
/// The arena must be sized for the graph and prepared for e_i
/// (PrepareContainment). `Graph` is Hypergraph or DynamicHypergraph.
template <typename Graph, typename NbrsFn, typename SizeFn, typename Sink>
void VisitContainment(const Graph& graph, EdgeId ei,
                      std::span<const Neighbor> nbrs, size_t begin,
                      size_t end, NbrsFn nbrs_of, SizeFn size_of,
                      ScratchArena& arena, Sink sink) {
  const StampedWeights& w_i = arena.edge_weight2;  // w(e_i, ·) over N(e_i)
  StampedWeights& w_j = arena.edge_weight;  // w(e_j, ·), re-stamped per e_j
  const uint64_t size_i = size_of(ei);

  for (size_t a = begin; a < end; ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ij = nbrs[a].weight;
    const uint64_t size_j = size_of(ej);
    bool pair_ready = false;

    // One pass over N(e_j) replaces per-pair hash probes: members also
    // adjacent to e_i stamp w_jk for the pair loop below, the rest are
    // triples with e_k disjoint from e_i — open with hub e_j — classified
    // on the spot.
    w_j.NewEpoch();
    for (const Neighbor& nj : nbrs_of(ej)) {
      const EdgeId ek = nj.edge;
      if (ek == ei) continue;
      if (w_i.Test(ek)) {  // in N(e_i): handled by the pair loop
        w_j.Set(ek, nj.weight);
        continue;
      }
      sink(ei, ej, ek,
           ClassifyMotifOrZero(size_i, size_j, size_of(ek), w_ij,
                               /*w_jk=*/nj.weight, /*w_ik=*/0,
                               /*w_ijk=*/0));
    }
    // e_k also a neighbor of e_i: unordered pairs once, j < k by position
    // (Algorithm 4, line 6).
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      const uint64_t w_ik = nbrs[b].weight;
      const uint64_t w_jk = w_j.Get(ek);
      uint64_t w_ijk = 0;
      if (w_jk != 0) {
        if (!pair_ready) {
          StampPairNodes(graph, ej, arena);
          pair_ready = true;
        }
        w_ijk = StampedTripleIntersection(graph, ek, arena);
      }
      sink(ei, ej, ek,
           ClassifyMotifOrZero(size_i, size_j, size_of(ek), w_ij, w_jk, w_ik,
                               w_ijk));
    }
  }
}

}  // namespace mochy::internal

#endif  // MOCHY_MOTIF_STAMP_KERNELS_H_
