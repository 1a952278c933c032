#include "motif/reference.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace mochy::reference {

namespace {

/// PackPair(i, j) -> omega for every hyperwedge: the O(1) pair-weight
/// probe these kernels were written against.
FlatMap64<uint32_t> PairWeightTable(const ProjectedGraph& projection) {
  FlatMap64<uint32_t> table(projection.num_wedges());
  for (EdgeId e = 0; e < projection.num_edges(); ++e) {
    for (const Neighbor& n : projection.neighbors(e)) {
      if (n.edge > e) table.Put(PackPair(e, n.edge), n.weight);
    }
  }
  return table;
}

uint32_t PairWeight(const FlatMap64<uint32_t>& table, EdgeId a, EdgeId b) {
  return table.GetOr(PackPair(a, b), 0);
}

}  // namespace

MotifCounts CountMotifsExact(const Hypergraph& graph,
                             const ProjectedGraph& projection,
                             size_t num_threads) {
  const size_t m = graph.num_edges();
  MOCHY_CHECK(projection.num_edges() == m)
      << "projection does not match hypergraph";
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const FlatMap64<uint32_t> weights = PairWeightTable(projection);

  std::vector<MotifCounts> partial(num_threads);
  // Work stealing over hubs, one atomic claim per hub: per-hub work is
  // |N_e|^2 and projected degrees are heavy-tailed, so static blocks would
  // balance poorly.
  std::atomic<size_t> next_hub{0};
  auto worker = [&](size_t thread) {
    MotifCounts& local = partial[thread];
    while (true) {
      const size_t i = next_hub.fetch_add(1, std::memory_order_relaxed);
      if (i >= m) return;
      const EdgeId ei = static_cast<EdgeId>(i);
      const auto nbrs = projection.neighbors(ei);
      const uint64_t size_i = graph.edge_size(ei);
      for (size_t a = 0; a < nbrs.size(); ++a) {
        const EdgeId ej = nbrs[a].edge;
        const uint64_t w_ij = nbrs[a].weight;
        const uint64_t size_j = graph.edge_size(ej);
        for (size_t b = a + 1; b < nbrs.size(); ++b) {
          const EdgeId ek = nbrs[b].edge;
          const uint64_t w_jk = PairWeight(weights, ej, ek);
          // Count open instances at their unique hub; closed instances
          // only from the smallest hub id (Algorithm 2, line 4).
          if (w_jk != 0 && ei >= std::min(ej, ek)) continue;
          const uint64_t w_ik = nbrs[b].weight;
          const uint64_t size_k = graph.edge_size(ek);
          const uint64_t w_ijk =
              w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
          // Triples containing duplicated hyperedges correspond to no
          // h-motif (paper Figure 4) and yield id 0: skip them. They can
          // occur when duplicate removal is disabled (e.g. null models).
          const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                             w_jk, w_ik, w_ijk);
          if (id != 0) local[id] += 1.0;
        }
      }
    }
  };
  ParallelWorkers(num_threads, worker);

  MotifCounts total;
  for (const MotifCounts& part : partial) total += part;
  return total;
}

namespace {

/// Processes one sampled hyperedge e_i: visits every h-motif instance that
/// contains e_i and increments raw counts. `stamp` is an |E|-sized scratch
/// with stamp[e] = omega(e_i, e) for e in N(e_i), 0 elsewhere.
void ProcessSampledEdge(const Hypergraph& graph,
                        const ProjectedGraph& projection,
                        const FlatMap64<uint32_t>& weights, EdgeId ei,
                        std::vector<uint32_t>& stamp, MotifCounts& raw) {
  const auto nbrs = projection.neighbors(ei);
  for (const Neighbor& n : nbrs) stamp[n.edge] = n.weight;
  const uint64_t size_i = graph.edge_size(ei);

  for (size_t a = 0; a < nbrs.size(); ++a) {
    const EdgeId ej = nbrs[a].edge;
    const uint64_t w_ij = nbrs[a].weight;
    const uint64_t size_j = graph.edge_size(ej);
    // Case 1: e_k also a neighbor of e_i. Enumerate unordered pairs once
    // (j < k by position, Algorithm 4 line 6).
    for (size_t b = a + 1; b < nbrs.size(); ++b) {
      const EdgeId ek = nbrs[b].edge;
      const uint64_t w_ik = nbrs[b].weight;
      const uint64_t size_k = graph.edge_size(ek);
      const uint64_t w_jk = PairWeight(weights, ej, ek);
      const uint64_t w_ijk =
          w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
      // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
      const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                         w_ik, w_ijk);
      if (id != 0) raw[id] += 1.0;
    }
    // Case 2: e_k in N(e_j) \ N(e_i) \ {e_i}: an open instance whose hub
    // is e_j (e_i and e_k are disjoint). Counted for every such e_j.
    for (const Neighbor& nj : projection.neighbors(ej)) {
      const EdgeId ek = nj.edge;
      if (ek == ei || stamp[ek] != 0) continue;  // in N(e_i): handled above
      const uint64_t size_k = graph.edge_size(ek);
      const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                         /*w_jk=*/nj.weight, /*w_ik=*/0,
                                         /*w_ijk=*/0);
      if (id != 0) raw[id] += 1.0;
    }
  }
  for (const Neighbor& n : nbrs) stamp[n.edge] = 0;
}

/// Visits every h-motif instance containing the wedge {e_i, e_j} and
/// increments raw counts. `stamp_i` / `stamp_j` are |E|-sized scratch
/// arrays (all zero on entry and exit).
void ProcessWedge(const Hypergraph& graph, EdgeId ei, EdgeId ej,
                  uint64_t w_ij, std::span<const Neighbor> nbrs_i,
                  std::span<const Neighbor> nbrs_j,
                  std::vector<uint32_t>& stamp_i,
                  std::vector<uint32_t>& stamp_j, MotifCounts& raw) {
  const uint64_t size_i = graph.edge_size(ei);
  const uint64_t size_j = graph.edge_size(ej);
  for (const Neighbor& n : nbrs_j) stamp_j[n.edge] = n.weight;

  // e_k in N(e_i): w_ik from the list, w_jk from the stamp.
  for (const Neighbor& n : nbrs_i) {
    const EdgeId ek = n.edge;
    if (ek == ej) continue;
    stamp_i[ek] = n.weight;
    const uint64_t w_ik = n.weight;
    const uint64_t w_jk = stamp_j[ek];
    const uint64_t size_k = graph.edge_size(ek);
    const uint64_t w_ijk =
        w_jk == 0 ? 0 : graph.TripleIntersectionSize(ei, ej, ek);
    // id 0 = triple with duplicated hyperedges (no h-motif, Figure 4).
    const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij, w_jk,
                                       w_ik, w_ijk);
    if (id != 0) raw[id] += 1.0;
  }
  // e_k in N(e_j) \ N(e_i): w_ik = 0, hence open with hub e_j.
  for (const Neighbor& n : nbrs_j) {
    const EdgeId ek = n.edge;
    if (ek == ei || stamp_i[ek] != 0) continue;
    const uint64_t size_k = graph.edge_size(ek);
    const int id = ClassifyMotifOrZero(size_i, size_j, size_k, w_ij,
                                       /*w_jk=*/n.weight, /*w_ik=*/0,
                                       /*w_ijk=*/0);
    if (id != 0) raw[id] += 1.0;
  }

  for (const Neighbor& n : nbrs_i) stamp_i[n.edge] = 0;
  for (const Neighbor& n : nbrs_j) stamp_j[n.edge] = 0;
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
  const FlatMap64<uint32_t> weights = PairWeightTable(projection);
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);

  auto worker = [&](size_t thread) {
    std::vector<uint32_t> stamp(m, 0);
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      // Per-sample fork: the estimate is identical for any thread count.
      Rng rng = base.Fork(n);
      const EdgeId ei = static_cast<EdgeId>(rng.UniformInt(m));
      ProcessSampledEdge(graph, projection, weights, ei, stamp,
                         partial[thread]);
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
  const FlatMap64<uint32_t> weights = PairWeightTable(projection);
  std::vector<MotifCounts> partial(num_threads);
  const Rng base(options.seed);

  auto worker = [&](size_t thread) {
    std::vector<uint32_t> stamp_i(m, 0), stamp_j(m, 0);
    for (uint64_t n = thread; n < options.num_samples; n += num_threads) {
      Rng rng = base.Fork(n);
      const uint64_t k = rng.UniformInt(wedges);
      const auto [ei, nj] = projection.WedgeAt(k);
      const EdgeId ej = nj.edge;
      const uint64_t w_ij = PairWeight(weights, ei, ej);
      MOCHY_DCHECK(w_ij > 0);
      ProcessWedge(graph, ei, ej, w_ij, projection.neighbors(ei),
                   projection.neighbors(ej), stamp_i, stamp_j,
                   partial[thread]);
    }
  };
  ParallelWorkers(num_threads, worker);

  for (const MotifCounts& part : partial) total += part;
  RescaleWedgeEstimates(wedges, options.num_samples, &total);
  return total;
}

}  // namespace mochy::reference
