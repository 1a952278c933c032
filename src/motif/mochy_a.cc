#include "motif/mochy_a.h"

#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/scratch_arena.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// Processes one sampled hyperedge e_i: the containment loop over all of
/// N(e_i) (`nbrs`, valid for the whole call), counting every h-motif
/// instance that contains e_i into `raw`. `nbrs_of(ej)` returns N(e_j),
/// valid until the next nbrs_of call — the two entry points below bind
/// it to the materialized projection or to the lazy memo.
template <typename InnerNbrsFn>
void ProcessSampledEdge(const Hypergraph& graph, EdgeId ei,
                        std::span<const Neighbor> nbrs, InnerNbrsFn&& nbrs_of,
                        const uint32_t* size_of, ScratchArena& arena,
                        MotifCounts& raw) {
  internal::PrepareContainment(graph, ei, nbrs, arena);
  internal::VisitContainment(
      graph, ei, nbrs, 0, nbrs.size(), nbrs_of,
      [size_of](EdgeId e) -> uint64_t { return size_of[e]; }, arena,
      [&raw](EdgeId, EdgeId, EdgeId, int id) {
        // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
        if (id != 0) raw[id] += 1.0;
      });
}

}  // namespace

MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const size_t m = graph.num_edges();
  MotifCounts total;
  if (m == 0 || options.num_samples == 0) return total;

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
      // Per-sample fork: the estimate is identical for any thread count.
      Rng rng = base.Fork(n);
      const EdgeId ei = static_cast<EdgeId>(rng.UniformInt(m));
      ProcessSampledEdge(
          graph, ei, projection.neighbors(ei),
          [&](EdgeId ej) { return projection.neighbors(ej); }, size_of.data(),
          arena, partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  // Rescale: each instance is counted once per sampled member hyperedge,
  // i.e. 3s/|E| times in expectation.
  total *=
      static_cast<double>(m) / (3.0 * static_cast<double>(options.num_samples));
  return total;
}

Result<MotifCounts> CountMotifsEdgeSampleLazy(
    const Hypergraph& graph, ConcurrentLazyProjection& lazy,
    const MochyAOptions& options, LazyProjection::Stats* stats_out) {
  const size_t m = graph.num_edges();
  MotifCounts total;
  if (stats_out != nullptr) *stats_out = lazy.shared_stats();
  if (m == 0 || options.num_samples == 0) return total;

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
    // Copies: memo references cannot cross the shard lock. The outer
    // N(e_i) must survive the whole per-sample pass, the inner N(e_j)
    // only until the next fetch — hence two buffers.
    std::vector<Neighbor> nbrs_i, nbrs_j;
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      const EdgeId ei = static_cast<EdgeId>(rng.UniformInt(m));
      lazy.Neighborhood(ei, builder, &nbrs_i, &local_stats[thread]);
      ProcessSampledEdge(
          graph, ei, std::span<const Neighbor>(nbrs_i.data(), nbrs_i.size()),
          [&](EdgeId ej) {
            lazy.Neighborhood(ej, builder, &nbrs_j, &local_stats[thread]);
            return std::span<const Neighbor>(nbrs_j.data(), nbrs_j.size());
          },
          size_of.data(), arena, partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  total *=
      static_cast<double>(m) / (3.0 * static_cast<double>(options.num_samples));
  if (stats_out != nullptr) *stats_out = MergeLazyRunStats(lazy, local_stats);
  return total;
}

}  // namespace mochy
