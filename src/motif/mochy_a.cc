#include "motif/mochy_a.h"

#include "common/logging.h"
#include "motif/stamp_kernels.h"

namespace mochy {

namespace {

/// One MoCHy-A sample: hyperedge e_k and the containment loop over all of
/// N(e_k), counting every h-motif instance that contains e_k into `raw`.
/// `source` is either neighborhood source of stamp_kernels.h.
struct EdgeSample {
  const Hypergraph& graph;

  template <typename Source>
  void operator()(uint64_t k, Source& source, const uint32_t* size_of,
                  ScratchArena& arena, MotifCounts& raw) const {
    const EdgeId ei = static_cast<EdgeId>(k);
    const std::span<const Neighbor> nbrs = source.Outer(ei);
    internal::PrepareContainment(graph, ei, nbrs, arena);
    internal::VisitContainment(
        graph, ei, nbrs, 0, nbrs.size(),
        [&source](EdgeId ej) { return source.Inner(ej); },
        [size_of](EdgeId e) -> uint64_t { return size_of[e]; }, arena,
        [&raw](EdgeId, EdgeId, EdgeId, int id) {
          // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
          if (id != 0) raw[id] += 1.0;
        });
  }
};

/// Rescale: each instance is counted once per sampled member hyperedge,
/// i.e. 3s/|E| times in expectation.
MotifCounts RescaleEdgeEstimates(MotifCounts raw, size_t num_edges,
                                 uint64_t num_samples) {
  if (num_samples > 0) {
    raw *= static_cast<double>(num_edges) /
           (3.0 * static_cast<double>(num_samples));
  }
  return raw;
}

}  // namespace

MotifCounts CountMotifsEdgeSample(const Hypergraph& graph,
                                  const ProjectedGraph& projection,
                                  const MochyAOptions& options) {
  MOCHY_CHECK(projection.num_edges() == graph.num_edges());
  const MotifCounts raw = internal::SampleUniformly(
      graph, graph.num_edges(), options,
      [&](size_t) { return internal::ProjectedNeighborhoods(projection); },
      EdgeSample{graph});
  return RescaleEdgeEstimates(raw, graph.num_edges(), options.num_samples);
}

Result<MotifCounts> CountMotifsEdgeSampleLazy(
    const Hypergraph& graph, ConcurrentLazyProjection& lazy,
    const MochyAOptions& options, LazyProjection::Stats* stats_out) {
  auto raw = internal::SampleLazy(graph, lazy, graph.num_edges(), options,
                                  stats_out, EdgeSample{graph});
  if (!raw.ok()) return raw.status();
  return RescaleEdgeEstimates(raw.value(), graph.num_edges(),
                              options.num_samples);
}

}  // namespace mochy
