// Differential regression tests for the stamp-array counting kernels.
//
// The production MoCHy-E/A/A+ kernels (stamp arrays + chunked claiming)
// must be BIT-identical to the retained pre-stamp baselines
// (motif/reference.h) on every graph, seed and thread count: exact counts
// are integers and the samplers rescale identical integral raw counts, so
// the comparisons below use EXPECT_EQ, not tolerances. Graphs cover
// varied degree skew, duplicate hyperedges (dedup disabled, as null
// models do) and the paper's Figure-2 running example. The per-edge rows
// and the enumerated instance multiset, sinks over the same hub loop as
// the exact counter, are pinned against brute-force set algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "gen/generators.h"
#include "hypergraph/builder.h"
#include "motif/engine.h"
#include "motif/enumerate.h"
#include "motif/mochy_a.h"
#include "motif/mochy_aplus.h"
#include "motif/mochy_e.h"
#include "motif/per_edge.h"
#include "motif/reference.h"
#include "motif/stamp_kernels.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

void ExpectBitIdentical(const MotifCounts& got, const MotifCounts& want,
                        const std::string& label) {
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_EQ(got[t], want[t]) << label << ": motif " << t;
  }
}

/// Random hypergraph with duplicate hyperedges retained: duplicates reach
/// the counting kernels when null models disable dedup, and their triples
/// must classify to id 0 in both kernel generations.
Hypergraph RandomWithDuplicates(size_t num_nodes, size_t num_edges,
                                size_t min_size, size_t max_size,
                                uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  std::vector<NodeId> edge;
  std::vector<std::vector<NodeId>> pool;
  for (size_t e = 0; e < num_edges; ++e) {
    // One edge in four repeats an earlier one verbatim.
    if (!pool.empty() && rng.UniformInt(4) == 0) {
      const auto& dup = pool[rng.UniformInt(pool.size())];
      builder.AddEdge(std::span<const NodeId>(dup.data(), dup.size()));
      continue;
    }
    const size_t size = static_cast<size_t>(rng.UniformRange(
        static_cast<int64_t>(min_size), static_cast<int64_t>(max_size)));
    const auto ids = rng.SampleDistinct(num_nodes, std::min(size, num_nodes));
    edge.assign(ids.begin(), ids.end());
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
    pool.push_back(edge);
  }
  BuildOptions options;
  options.num_nodes = num_nodes;
  options.dedup_edges = false;
  return std::move(builder).Build(options).value();
}

/// A star: one 40-node hyperedge (id 60) that ~100 small edges touch.
/// Its projected degree is far above 16 + 4 × the pairs left after it in
/// any small hub's neighbor list, so the hub loop skips scattering N(e_j)
/// there (WorthScattering is false) and resolves w_jk with its forward
/// cursor over the sorted N(e_j).
Hypergraph StarGraph() {
  Rng rng(41);
  HypergraphBuilder builder;
  std::vector<NodeId> edge;
  for (size_t e = 0; e < 120; ++e) {
    edge.clear();
    if (e == 60) {
      for (NodeId v = 0; v < 40; ++v) edge.push_back(v);
    } else {
      // 1-2 nodes of the star edge, 1-2 of a 30-node rim.
      const size_t inner = 1 + rng.UniformInt(2);
      const size_t outer = 1 + rng.UniformInt(2);
      for (uint64_t v : rng.SampleDistinct(40, inner)) {
        edge.push_back(static_cast<NodeId>(v));
      }
      for (uint64_t v : rng.SampleDistinct(30, outer)) {
        edge.push_back(static_cast<NodeId>(40 + v));
      }
    }
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  BuildOptions options;
  options.dedup_edges = false;
  return std::move(builder).Build(options).value();
}

/// The test corpus: low-skew sparse, high-skew dense (few nodes, many
/// edges => heavy-tailed projected degrees), a domain-generator graph, a
/// duplicate-heavy graph and a star whose hub rows take the unscattered
/// w_jk path.
std::vector<Hypergraph> DiffCorpus() {
  std::vector<Hypergraph> graphs;
  graphs.push_back(testing::RandomHypergraph(60, 80, 2, 5, 11));
  graphs.push_back(testing::RandomHypergraph(25, 120, 2, 9, 23));
  GeneratorConfig config = DefaultConfig(Domain::kContact, 0.05);
  config.seed = 7;
  graphs.push_back(GenerateDomainHypergraph(config).value());
  graphs.push_back(RandomWithDuplicates(40, 90, 2, 6, 31));
  graphs.push_back(StarGraph());
  return graphs;
}

TEST(KernelDiffTest, StarGraphTakesTheUnscatteredPath) {
  // Guards the corpus: some hub pair must reach e_j = the star edge with
  // too few pairs left to scatter its neighborhood.
  const Hypergraph graph = StarGraph();
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  uint64_t unscattered = 0;
  for (EdgeId ei = 0; ei < graph.num_edges(); ++ei) {
    const auto nbrs = projection.neighbors(ei);
    for (size_t a = 0; a + 1 < nbrs.size(); ++a) {
      if (!internal::WorthScattering(projection.degree(nbrs[a].edge),
                                     nbrs.size() - a - 1)) {
        ++unscattered;
      }
    }
  }
  EXPECT_GT(unscattered, 10u);
}

std::vector<size_t> ThreadCounts() {
  return {1, 2, DefaultThreadCount()};
}

TEST(KernelDiffTest, ExactMatchesReferenceAtEveryThreadCount) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    const MotifCounts want = reference::CountMotifsExact(graph, projection, 1);
    for (size_t threads : ThreadCounts()) {
      ExpectBitIdentical(
          CountMotifsExact(graph, projection, threads), want,
          "exact m=" + std::to_string(graph.num_edges()) + " threads=" +
              std::to_string(threads));
    }
  }
}

TEST(KernelDiffTest, ExactMatchesBruteForce) {
  // Absolute correctness, not just agreement with the old kernel.
  for (const Hypergraph& graph : DiffCorpus()) {
    if (graph.num_edges() > 130) continue;  // brute force is O(|E|^3)
    ExpectBitIdentical(CountMotifsExact(graph, 2),
                       testing::BruteForceCounts(graph), "brute-force");
  }
}

TEST(KernelDiffTest, PerEdgeRowsMatchBruteForceAtEveryThreadCount) {
  // Per-edge rows are a sink over the same hub loop as the exact counter;
  // the duplicate-heavy graph drives id-0 triples through it.
  for (const Hypergraph& graph : DiffCorpus()) {
    if (graph.num_edges() > 130) continue;  // brute force is O(|E|^3)
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    const auto want = testing::BruteForceRows(graph);
    for (size_t threads : ThreadCounts()) {
      const auto got = ComputePerEdgeMotifCounts(graph, projection, threads);
      ASSERT_EQ(got.size(), want.size());
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        for (int t = 0; t < kNumHMotifs; ++t) {
          EXPECT_EQ(got[e][t], want[e][t])
              << "m=" << graph.num_edges() << " threads=" << threads
              << " edge " << e << " motif " << (t + 1);
        }
      }
    }
  }
}

TEST(KernelDiffTest, CollectInstancesMatchesBruteForceClassification) {
  // The enumerated multiset (sorted member ids + motif id) must equal
  // the brute-force classification of every unordered triple: no
  // instance missed, none repeated, no id-0 triple emitted.
  using Instance = std::tuple<EdgeId, EdgeId, EdgeId, int>;
  for (const Hypergraph& graph : DiffCorpus()) {
    if (graph.num_edges() > 130) continue;  // brute force is O(|E|^3)
    const size_t m = graph.num_edges();
    std::vector<std::set<NodeId>> sets(m);
    for (EdgeId e = 0; e < m; ++e) {
      sets[e] = std::set<NodeId>(graph.edge(e).begin(), graph.edge(e).end());
    }
    std::vector<Instance> want;
    for (EdgeId i = 0; i < m; ++i) {
      for (EdgeId j = i + 1; j < m; ++j) {
        for (EdgeId k = j + 1; k < m; ++k) {
          const int id =
              testing::BruteForceClassify(sets[i], sets[j], sets[k]);
          if (id != 0) want.emplace_back(i, j, k, id);
        }
      }
    }
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    std::vector<Instance> got;
    for (const MotifInstance& inst : CollectInstances(graph, projection)) {
      EdgeId ids[3] = {inst.i, inst.j, inst.k};
      std::sort(ids, ids + 3);
      got.emplace_back(ids[0], ids[1], ids[2], inst.motif);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "m=" << m;
  }
}

TEST(KernelDiffTest, EdgeSampleMatchesReference) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    for (uint64_t seed : {1u, 77u}) {
      MochyAOptions options;
      options.num_samples = 64;
      options.seed = seed;
      const MotifCounts want =
          reference::CountMotifsEdgeSample(graph, projection, options);
      for (size_t threads : ThreadCounts()) {
        options.num_threads = threads;
        ExpectBitIdentical(
            CountMotifsEdgeSample(graph, projection, options), want,
            "mochy-a seed=" + std::to_string(seed) + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST(KernelDiffTest, WedgeSampleMatchesReference) {
  for (const Hypergraph& graph : DiffCorpus()) {
    const auto projection = ProjectedGraph::Build(graph, 1).value();
    for (uint64_t seed : {1u, 77u}) {
      MochyAPlusOptions options;
      options.num_samples = 64;
      options.seed = seed;
      const MotifCounts want =
          reference::CountMotifsWedgeSample(graph, projection, options);
      for (size_t threads : ThreadCounts()) {
        options.num_threads = threads;
        ExpectBitIdentical(
            CountMotifsWedgeSample(graph, projection, options), want,
            "mochy-a+ seed=" + std::to_string(seed) + " threads=" +
                std::to_string(threads));
      }
    }
  }
}

TEST(KernelDiffTest, ZeroThreadsMeansDefaultThreadCount) {
  // The raw entry points must accept 0 (PR-2 contract) and still produce
  // the single-thread result bit-for-bit.
  const Hypergraph graph = testing::RandomHypergraph(40, 60, 2, 5, 5);
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  ExpectBitIdentical(CountMotifsExact(graph, projection, 0),
                     CountMotifsExact(graph, projection, 1), "exact 0-threads");

  MochyAOptions a;
  a.num_samples = 32;
  a.num_threads = 0;
  MochyAOptions a1 = a;
  a1.num_threads = 1;
  ExpectBitIdentical(CountMotifsEdgeSample(graph, projection, a),
                     CountMotifsEdgeSample(graph, projection, a1),
                     "mochy-a 0-threads");

  MochyAPlusOptions ap;
  ap.num_samples = 32;
  ap.num_threads = 0;
  MochyAPlusOptions ap1 = ap;
  ap1.num_threads = 1;
  ExpectBitIdentical(CountMotifsWedgeSample(graph, projection, ap),
                     CountMotifsWedgeSample(graph, projection, ap1),
                     "mochy-a+ 0-threads");
}

TEST(KernelDiffTest, Figure2GoldenVector) {
  // Figure 2 running example; full 26-motif golden vector (motifs 10, 21,
  // 22 each once — see tests/golden_test.cc for the construction).
  const Hypergraph graph =
      MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
  const auto projection = ProjectedGraph::Build(graph, 1).value();
  MotifCounts want;
  want[10] = 1.0;
  want[21] = 1.0;
  want[22] = 1.0;
  for (size_t threads : ThreadCounts()) {
    ExpectBitIdentical(CountMotifsExact(graph, projection, threads), want,
                       "figure-2 stamped");
  }
  ExpectBitIdentical(reference::CountMotifsExact(graph, projection, 1), want,
                     "figure-2 reference");
}

TEST(KernelDiffTest, WorkChunkBoundariesCoverTheRange) {
  const std::vector<uint64_t> skewed = {0, 1, 100, 0, 0, 50, 2, 2,
                                        2,  2, 0,  9, 1, 0,  30};
  for (size_t chunks : {1u, 2u, 4u, 64u}) {
    const auto b = WorkChunkBoundaries(skewed, chunks);
    ASSERT_GE(b.size(), 2u);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), skewed.size());
    for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  }
  EXPECT_EQ(WorkChunkBoundaries({}, 4).size(), 1u);
}

}  // namespace
}  // namespace mochy
