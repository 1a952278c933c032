#include "hypergraph/projection.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/parallel.h"

namespace mochy {

NeighborhoodBuilder::NeighborhoodBuilder(size_t num_edges)
    : count_(num_edges, 0) {
  touched_.reserve(256);
}

size_t NeighborhoodBuilder::Sweep(const Hypergraph& graph, EdgeId e) {
  for (NodeId v : graph.edge(e)) {
    for (EdgeId other : graph.edges_of(v)) {
      if (other == e) continue;
      if (count_[other] == 0) touched_.push_back(other);
      ++count_[other];
    }
  }
  std::sort(touched_.begin(), touched_.end());
  return touched_.size();
}

void NeighborhoodBuilder::Emit(Neighbor* out) {
  for (EdgeId other : touched_) {
    *out++ = Neighbor{other, count_[other]};
    count_[other] = 0;
  }
  touched_.clear();
}

void NeighborhoodBuilder::Compute(const Hypergraph& graph, EdgeId e,
                                  std::vector<Neighbor>* out) {
  out->resize(Sweep(graph, e));
  Emit(out->data());
}

void NeighborhoodBuilder::ComputeInto(const Hypergraph& graph, EdgeId e,
                                      std::span<Neighbor> row) {
  const size_t n = Sweep(graph, e);
  MOCHY_CHECK(n == row.size()) << "row of edge " << e << " holds "
                               << row.size() << " entries, |N(e)| = " << n;
  Emit(row.data());
}

uint64_t NeighborhoodBuilder::SweepCost(const Hypergraph& graph, EdgeId e) {
  uint64_t cost = 0;
  for (NodeId v : graph.edge(e)) cost += graph.edges_of(v).size();
  return cost;
}

Result<ProjectedGraph> ProjectedGraph::Build(const Hypergraph& graph,
                                             size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const size_t m = graph.num_edges();
  ProjectedGraph out;

  // Pass 1: the wedge index sizes every row and locates its suffix of
  // neighbors with id > e. A row's degree is also its cost in pass 2.
  ProjectedDegrees degrees = ComputeProjectedDegrees(graph, num_threads);
  out.offsets_.assign(m + 1, 0);
  out.suffix_start_.assign(m, 0);
  std::vector<uint64_t> cost(m);
  for (size_t e = 0; e < m; ++e) {
    cost[e] = degrees.degree[e];
    out.offsets_[e + 1] = out.offsets_[e] + degrees.degree[e];
    out.suffix_start_[e] = static_cast<uint32_t>(
        degrees.degree[e] -
        (degrees.wedge_prefix[e + 1] - degrees.wedge_prefix[e]));
  }
  out.num_wedges_ = degrees.num_wedges;
  out.wedge_offsets_ = std::move(degrees.wedge_prefix);

  // Pass 2: sweep each row straight into its presized slot. Rows are
  // claimed in chunks of near-equal summed degree (projected degrees are
  // heavy-tailed); each worker keeps one builder and an integer weight
  // partial.
  out.adj_.resize(out.offsets_[m]);
  std::vector<std::optional<NeighborhoodBuilder>> builders(num_threads);
  std::vector<uint64_t> weight_partial(num_threads, 0);
  ParallelWorkChunks(cost, num_threads,
                     [&](size_t worker, size_t begin, size_t end) {
    std::optional<NeighborhoodBuilder>& builder = builders[worker];
    if (!builder.has_value()) builder.emplace(m);
    uint64_t weight = 0;
    for (size_t e = begin; e < end; ++e) {
      Neighbor* row = out.adj_.data() + out.offsets_[e];
      const size_t degree = out.offsets_[e + 1] - out.offsets_[e];
      builder->ComputeInto(graph, static_cast<EdgeId>(e), {row, degree});
      for (size_t i = out.suffix_start_[e]; i < degree; ++i) {
        weight += row[i].weight;
      }
    }
    weight_partial[worker] += weight;
  });
  for (const uint64_t weight : weight_partial) out.total_weight_ += weight;
  return out;
}

uint64_t ProjectedGraph::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         adj_.size() * sizeof(Neighbor) +
         wedge_offsets_.size() * sizeof(uint64_t) +
         suffix_start_.size() * sizeof(uint32_t);
}

uint32_t ProjectedGraph::Weight(EdgeId a, EdgeId b) const {
  if (degree(a) > degree(b)) std::swap(a, b);
  const auto row = neighbors(a);
  const auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Neighbor& n, EdgeId id) { return n.edge < id; });
  return it != row.end() && it->edge == b ? it->weight : 0;
}

std::pair<EdgeId, Neighbor> ProjectedGraph::WedgeAt(uint64_t k) const {
  MOCHY_DCHECK(k < num_wedges_);
  // Find the source edge via binary search over the wedge prefix sums.
  const auto it = std::upper_bound(wedge_offsets_.begin(),
                                   wedge_offsets_.end(), k);
  const size_t e = static_cast<size_t>(it - wedge_offsets_.begin()) - 1;
  const uint64_t within = k - wedge_offsets_[e];
  const auto span = neighbors(static_cast<EdgeId>(e));
  return {static_cast<EdgeId>(e), span[suffix_start_[e] + within]};
}

ProjectedDegrees ComputeProjectedDegrees(const Hypergraph& graph,
                                         size_t num_threads) {
  if (num_threads == 0) num_threads = DefaultThreadCount();
  const size_t m = graph.num_edges();
  ProjectedDegrees result;
  result.degree.assign(m, 0);
  std::vector<uint64_t> wedges_here(m, 0);
  ParallelBlocks(
      m, num_threads, [&](size_t /*thread*/, size_t begin, size_t end) {
        std::vector<uint32_t> stamp(m, 0);
        std::vector<EdgeId> touched;
        for (size_t e = begin; e < end; ++e) {
          for (NodeId v : graph.edge(static_cast<EdgeId>(e))) {
            for (EdgeId other : graph.edges_of(v)) {
              if (other == e || stamp[other] != 0) continue;
              stamp[other] = 1;
              touched.push_back(other);
            }
          }
          result.degree[e] = static_cast<uint32_t>(touched.size());
          for (EdgeId other : touched) {
            if (other > e) ++wedges_here[e];
            stamp[other] = 0;
          }
          touched.clear();
        }
      });
  result.wedge_prefix.assign(m + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    result.wedge_prefix[e + 1] = result.wedge_prefix[e] + wedges_here[e];
  }
  result.num_wedges = result.wedge_prefix[m];
  return result;
}

uint64_t ProjectedDegrees::MemoryBytes() const {
  return degree.size() * sizeof(uint32_t) +
         wedge_prefix.size() * sizeof(uint64_t);
}

uint64_t EstimateProjectionBytes(const ProjectedDegrees& degrees) {
  const size_t m = degrees.degree.size();
  uint64_t adjacency = 0;
  for (uint32_t d : degrees.degree) adjacency += d;
  return (m + 1) * sizeof(uint64_t) * 2 +  // offsets_ + wedge_offsets_
         m * sizeof(uint32_t) +            // suffix_start_
         adjacency * sizeof(Neighbor);
}

}  // namespace mochy
