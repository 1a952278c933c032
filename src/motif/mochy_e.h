// MoCHy-E: exact h-motif counting (paper Algorithm 2).
//
// For every hyperedge e_i and every unordered pair {e_j, e_k} of its
// projected-graph neighbors, the triple {e_i, e_j, e_k} is an h-motif
// instance. Open instances (e_j ∩ e_k = ∅) are visited exactly once (at
// their unique "hub"); closed instances are visited three times, so they
// are counted only when i < min(j, k). Complexity
// O(Σ_e |e| · |N_e|²) (Theorem 1).
//
// Counting is one sink over the stamped hub loop in motif/stamp_kernels.h
// (docs/ARCHITECTURE.md "Counting kernels"), the same loop behind instance
// enumeration (motif/enumerate.h) and per-edge rows (motif/per_edge.h):
// per-pair weights come from a dense scatter of N(e_j) instead of hash
// probes, triple intersections from stamped node marks, and hubs are
// claimed in Σd²-balanced chunks. The pre-stamp implementation is retained
// in motif/reference.h as the differential-test oracle and bench baseline.
#ifndef MOCHY_MOTIF_MOCHY_E_H_
#define MOCHY_MOTIF_MOCHY_E_H_

#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/counts.h"

namespace mochy {

/// Exactly counts every h-motif's instances. `num_threads` parallelizes
/// over hub hyperedges (Section 3.4); 0 means DefaultThreadCount(). The
/// result is identical for any thread count.
MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads = 1);

/// Convenience overload that builds the projection internally.
MotifCounts CountMotifsExact(const Hypergraph& graph,
                             size_t num_threads = 1);

}  // namespace mochy

#endif  // MOCHY_MOTIF_MOCHY_E_H_
