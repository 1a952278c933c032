#include "motif/enumerate.h"

#include <vector>

#include "motif/stamp_kernels.h"

namespace mochy {

void EnumerateInstances(const Hypergraph& graph,
                        const ProjectedGraph& projection,
                        const std::function<void(const MotifInstance&)>& fn) {
  internal::ForEachHubInstance(
      graph, projection, /*num_threads=*/1,
      [&fn](size_t, EdgeId ei, EdgeId ej, EdgeId ek, int id) {
        fn(MotifInstance{ei, ej, ek, id});
      });
}

std::vector<MotifInstance> CollectInstances(const Hypergraph& graph,
                                            const ProjectedGraph& projection) {
  std::vector<MotifInstance> out;
  EnumerateInstances(graph, projection,
                     [&](const MotifInstance& inst) { out.push_back(inst); });
  return out;
}

}  // namespace mochy
