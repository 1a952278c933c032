#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "hypergraph/builder.h"

namespace perfbench {
namespace {

std::vector<mochy::NodeId> Permutation(size_t n, mochy::Rng& rng) {
  std::vector<mochy::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), mochy::NodeId{0});
  rng.Shuffle(perm);
  return perm;
}

}  // namespace

mochy::Result<mochy::Hypergraph> Relabel(const mochy::Hypergraph& graph,
                                         uint64_t seed) {
  mochy::Rng rng(seed);
  const std::vector<mochy::NodeId> node = Permutation(graph.num_nodes(), rng);
  std::vector<mochy::EdgeId> order(graph.num_edges());
  std::iota(order.begin(), order.end(), mochy::EdgeId{0});
  rng.Shuffle(order);
  mochy::HypergraphBuilder builder;
  std::vector<mochy::NodeId> members;
  for (mochy::EdgeId e : order) {
    members.clear();
    for (mochy::NodeId v : graph.edge(e)) members.push_back(node[v]);
    builder.AddEdge(members);
  }
  mochy::BuildOptions options;
  options.num_nodes = graph.num_nodes();
  return std::move(builder).Build(options);
}

mochy::TemporalTrace Relabel(const mochy::TemporalTrace& trace,
                             uint64_t seed) {
  mochy::NodeId max_node = 0;
  for (const mochy::TimedEdge& arrival : trace.arrivals) {
    for (mochy::NodeId v : arrival.nodes) max_node = std::max(max_node, v);
  }
  mochy::Rng rng(seed);
  const std::vector<mochy::NodeId> node =
      Permutation(trace.empty() ? 0 : size_t{max_node} + 1, rng);
  mochy::TemporalTrace out = trace;
  for (mochy::TimedEdge& arrival : out.arrivals) {
    for (mochy::NodeId& v : arrival.nodes) v = node[v];
  }
  return out;
}

}  // namespace perfbench
