#include "motif/per_edge.h"

#include <utility>

#include "common/parallel.h"
#include "motif/stamp_kernels.h"

namespace mochy {

std::vector<std::array<double, kNumHMotifs>> ComputePerEdgeMotifCounts(
    const Hypergraph& graph, const ProjectedGraph& projection,
    size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const size_t num_edges = graph.num_edges();
  // One row block per worker; each instance credits its three member
  // edges. The increments are integers (exactly representable in
  // doubles), so the merge below is bit-identical in any order and at any
  // thread count.
  using Rows = std::vector<std::array<double, kNumHMotifs>>;
  std::vector<Rows> partial(
      num_threads, Rows(num_edges, std::array<double, kNumHMotifs>{}));
  internal::ForEachHubInstance(
      graph, projection, num_threads,
      [&partial](size_t thread, EdgeId ei, EdgeId ej, EdgeId ek, int id) {
        Rows& rows = partial[thread];
        rows[ei][id - 1] += 1.0;
        rows[ej][id - 1] += 1.0;
        rows[ek][id - 1] += 1.0;
      });
  Rows rows = std::move(partial[0]);
  for (size_t t = 1; t < num_threads; ++t) {
    for (size_t e = 0; e < num_edges; ++e) {
      for (int m = 0; m < kNumHMotifs; ++m) rows[e][m] += partial[t][e][m];
    }
  }
  return rows;
}

}  // namespace mochy
