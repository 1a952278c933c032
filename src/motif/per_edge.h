// Per-hyperedge motif participation counts: for each hyperedge e, the
// number of instances of each h-motif that contain e. These are the HM26
// features of the paper's hyperedge-prediction case study (Table 4).
// The rows are a sink over the stamped MoCHy-E hub loop
// (motif/stamp_kernels.h); MotifEngine::CountPerEdge wraps this function
// with run statistics.
#ifndef MOCHY_MOTIF_PER_EDGE_H_
#define MOCHY_MOTIF_PER_EDGE_H_

#include <array>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/pattern.h"

namespace mochy {

/// row[e][t-1] = number of h-motif-t instances containing hyperedge e.
/// Exact (every instance is visited once, at its hub, and contributes to
/// the rows of its three member hyperedges). `num_threads` parallelizes
/// over hubs with one row block per worker; 0 means DefaultThreadCount().
/// The rows are bit-identical for any thread count.
std::vector<std::array<double, kNumHMotifs>> ComputePerEdgeMotifCounts(
    const Hypergraph& graph, const ProjectedGraph& projection,
    size_t num_threads = 1);

}  // namespace mochy

#endif  // MOCHY_MOTIF_PER_EDGE_H_
