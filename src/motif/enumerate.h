// MoCHy-E-ENUM: h-motif instance enumeration (paper Algorithm 3).
//
// Visits every h-motif instance exactly once and hands it to a callback
// together with its motif id. Like MoCHy-E counting (motif/mochy_e.h) and
// the per-edge rows (motif/per_edge.h), this is a sink over the stamped
// hub loop in motif/stamp_kernels.h; the callback here is the public
// std::function hook for the CLI, the variance terms and the tests.
#ifndef MOCHY_MOTIF_ENUMERATE_H_
#define MOCHY_MOTIF_ENUMERATE_H_

#include <functional>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "hypergraph/projection.h"
#include "motif/pattern.h"

namespace mochy {

/// One enumerated instance: the three hyperedges (i is the hub the
/// instance was discovered from) and the motif id in [1, 26].
struct MotifInstance {
  EdgeId i, j, k;
  int motif;
};

/// Calls `fn` once per h-motif instance, in deterministic (hub-major)
/// order. Single-threaded.
void EnumerateInstances(const Hypergraph& graph,
                        const ProjectedGraph& projection,
                        const std::function<void(const MotifInstance&)>& fn);

/// Materializes all instances (small graphs / tests only).
std::vector<MotifInstance> CollectInstances(const Hypergraph& graph,
                                            const ProjectedGraph& projection);

}  // namespace mochy

#endif  // MOCHY_MOTIF_ENUMERATE_H_
