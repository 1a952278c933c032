// Seeded benchmark inputs that ask for the same work under every seed.
//
// The generators' output depends on their seed in size and shape: the
// MoCHy-E work of a contact graph, for one, moves by about 20% from seed
// to seed, which would make a run's figures depend on its seed as much
// as on the code. So the shape of every input comes from one fixed
// generator seed, and the run seed picks a random relabeling of it: node
// ids are permuted and hyperedges reordered. Every seed then gives a
// different input that is isomorphic to every other one, with the same
// motif counts and the same amount of work.
#ifndef PERFBENCH_CORE_INPUTS_H_
#define PERFBENCH_CORE_INPUTS_H_

#include <cstdint>

#include "common/status.h"
#include "hypergraph/hypergraph.h"
#include "hypergraph/temporal_trace.h"

namespace perfbench {

/// Generator seed of every input's shape.
constexpr uint64_t kShapeSeed = 1;

/// `graph` with its node ids permuted and its hyperedges shuffled by
/// `seed`. Deterministic in `seed`; isomorphic to `graph`.
mochy::Result<mochy::Hypergraph> Relabel(const mochy::Hypergraph& graph,
                                         uint64_t seed);

/// `trace` with its node ids permuted by `seed`; arrival order and times
/// are kept, so every window holds the same hyperedges up to the
/// relabeling.
mochy::TemporalTrace Relabel(const mochy::TemporalTrace& trace,
                             uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_INPUTS_H_
