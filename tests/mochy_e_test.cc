#include "motif/mochy_e.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "hypergraph/builder.h"
#include "motif/enumerate.h"
#include "tests/test_util.h"

namespace mochy {
namespace {

Hypergraph PaperExample() {
  return MakeHypergraph({{0, 1, 2}, {0, 3, 1}, {4, 5, 0}, {6, 7, 2}}).value();
}

TEST(MochyETest, PaperExampleHasThreeInstances) {
  // Figure 2(d): the triples {e1,e2,e3}, {e1,e2,e4}, {e1,e3,e4} are the
  // connected triples ({e2,e3,e4} is disconnected: e2∩e4=∅, e3∩e4=∅).
  const Hypergraph g = PaperExample();
  const MotifCounts counts = CountMotifsExact(g);
  EXPECT_DOUBLE_EQ(counts.Total(), 3.0);
}

TEST(MochyETest, MatchesBruteForceOnPaperExample) {
  const Hypergraph g = PaperExample();
  const MotifCounts exact = CountMotifsExact(g);
  const MotifCounts brute = testing::BruteForceCounts(g);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(exact[t], brute[t]) << "motif " << t;
  }
}

class MochyEBruteForceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MochyEBruteForceSweep, MatchesBruteForceOnRandomGraphs) {
  const uint64_t seed = GetParam();
  // Densities vary with the seed to hit sparse and dense regimes.
  const size_t nodes = 10 + (seed % 4) * 10;
  const size_t edges = 15 + (seed % 3) * 10;
  const Hypergraph g = testing::RandomHypergraph(nodes, edges, 1, 6, seed);
  const MotifCounts exact = CountMotifsExact(g);
  const MotifCounts brute = testing::BruteForceCounts(g);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(exact[t], brute[t]) << "motif " << t << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MochyEBruteForceSweep,
                         ::testing::Range<uint64_t>(0, 12));

TEST(MochyETest, ParallelMatchesSerial) {
  const Hypergraph g = testing::RandomHypergraph(50, 120, 1, 7, 9);
  const MotifCounts serial = CountMotifsExact(g, 1);
  const MotifCounts parallel = CountMotifsExact(g, 4);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(serial[t], parallel[t]) << "motif " << t;
  }
}

TEST(MochyETest, EmptyAndTinyGraphs) {
  auto single = MakeHypergraph({{0, 1, 2}}).value();
  EXPECT_DOUBLE_EQ(CountMotifsExact(single).Total(), 0.0);
  auto pair = MakeHypergraph({{0, 1}, {1, 2}}).value();
  EXPECT_DOUBLE_EQ(CountMotifsExact(pair).Total(), 0.0);
}

TEST(MochyETest, ThreeNestedEdges) {
  // c ⊂ b ⊂ a: d_a, p_ab, t non-empty; d_b=d_c=p_bc=p_ca=0.
  auto g = MakeHypergraph({{0, 1, 2, 3}, {0, 1, 2}, {0, 1}}).value();
  const MotifCounts counts = CountMotifsExact(g);
  EXPECT_DOUBLE_EQ(counts.Total(), 1.0);
  const int id = ClassifyMotif(4, 3, 2, 3, 2, 2, 2);
  EXPECT_DOUBLE_EQ(counts[id], 1.0);
  EXPECT_TRUE(IsClosedMotif(id));
}

TEST(MochyETest, OpenInstanceCountedExactlyOnce) {
  // Chain a-b-c with a ∩ c = ∅ is counted at its hub only.
  auto g = MakeHypergraph({{0, 1}, {1, 2}, {2, 3}}).value();
  const MotifCounts counts = CountMotifsExact(g);
  EXPECT_DOUBLE_EQ(counts.Total(), 1.0);
  EXPECT_DOUBLE_EQ(counts.TotalOpen(), 1.0);
  EXPECT_DOUBLE_EQ(counts[21], 1.0);
}

TEST(MochyETest, ClosedTriangleCountedExactlyOnce) {
  // {0,1},{1,2},{2,0}: every node lies in a pairwise intersection, so no
  // private regions -> motif 23 (triangle with empty core, d = 000).
  auto g = MakeHypergraph({{0, 1}, {1, 2}, {2, 0}}).value();
  const MotifCounts counts = CountMotifsExact(g);
  EXPECT_DOUBLE_EQ(counts.Total(), 1.0);
  EXPECT_DOUBLE_EQ(counts.TotalClosed(), 1.0);
  EXPECT_DOUBLE_EQ(counts[23], 1.0);
}

TEST(MochyETest, GenericTriangleIsMotif26) {
  // Pairwise overlaps, empty core, all private regions non-empty.
  auto g = MakeHypergraph({{0, 1, 10}, {1, 2, 11}, {2, 0, 12}}).value();
  const MotifCounts counts = CountMotifsExact(g);
  EXPECT_DOUBLE_EQ(counts.Total(), 1.0);
  EXPECT_DOUBLE_EQ(counts[26], 1.0);
}

TEST(MochyETest, SkipsTriplesWithDuplicateEdges) {
  // Duplicate hyperedges arise in null-model samples (dedup disabled).
  // Triples containing duplicates match no h-motif (Figure 4) and must be
  // skipped, consistently with the brute-force reference.
  BuildOptions keep;
  keep.dedup_edges = false;
  auto g = MakeHypergraph(
               {{0, 1, 2}, {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 1, 2}}, keep)
               .value();
  const MotifCounts exact = CountMotifsExact(g);
  const MotifCounts brute = testing::BruteForceCounts(g);
  for (int t = 1; t <= kNumHMotifs; ++t) {
    EXPECT_DOUBLE_EQ(exact[t], brute[t]) << "motif " << t;
  }
  // Sanity: the duplicated triple {0,1,4} (three identical edges) and any
  // triple with two copies contribute nothing; distinct-edge triples do.
  EXPECT_GT(exact.Total(), 0.0);
}

TEST(MochyETest, DuplicateEdgeGraphsMatchBruteForceSweep) {
  BuildOptions keep;
  keep.dedup_edges = false;
  for (uint64_t seed = 50; seed < 54; ++seed) {
    // Small node pool + many edges => frequent duplicates.
    Rng rng(seed);
    std::vector<std::vector<NodeId>> edges;
    for (int e = 0; e < 25; ++e) {
      std::vector<NodeId> edge;
      const size_t size = 1 + rng.UniformInt(3);
      for (size_t i = 0; i < size; ++i) {
        edge.push_back(static_cast<NodeId>(rng.UniformInt(6)));
      }
      edges.push_back(edge);
    }
    auto g = MakeHypergraph(edges, keep).value();
    const MotifCounts exact = CountMotifsExact(g);
    const MotifCounts brute = testing::BruteForceCounts(g);
    for (int t = 1; t <= kNumHMotifs; ++t) {
      EXPECT_DOUBLE_EQ(exact[t], brute[t]) << "motif " << t << " seed " << seed;
    }
  }
}

TEST(EnumerateTest, VisitsEveryInstanceOnceWithCorrectMotif) {
  const Hypergraph g = testing::RandomHypergraph(25, 40, 1, 5, 17);
  const ProjectedGraph p = ProjectedGraph::Build(g).value();
  const auto instances = CollectInstances(g, p);
  // Total must match the exact count, per-triple must be unique.
  const MotifCounts exact = CountMotifsExact(g, p);
  EXPECT_EQ(static_cast<double>(instances.size()), exact.Total());
  std::set<std::tuple<EdgeId, EdgeId, EdgeId>> seen;
  for (const auto& inst : instances) {
    EdgeId ids[3] = {inst.i, inst.j, inst.k};
    std::sort(ids, ids + 3);
    EXPECT_TRUE(seen.emplace(ids[0], ids[1], ids[2]).second)
        << "instance visited twice";
    EXPECT_GE(inst.motif, 1);
    EXPECT_LE(inst.motif, kNumHMotifs);
  }
}

}  // namespace
}  // namespace mochy
