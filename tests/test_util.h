// Shared test helpers: an independent brute-force h-motif counter and
// per-edge row builder (direct set algebra over all O(|E|^3) triples, no
// projected graph, no inclusion-exclusion), small random-hypergraph generators for
// property-style sweeps, a seeded add/remove/query schedule generator
// for fuzzing dynamic engines (RandomDynamicSchedule), and filesystem
// fixtures for I/O tests (ScopedTempDir, CorruptFile).
#ifndef MOCHY_TESTS_TEST_UTIL_H_
#define MOCHY_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hypergraph/builder.h"
#include "hypergraph/hypergraph.h"
#include "motif/counts.h"
#include "motif/pattern.h"

namespace mochy::testing {

/// RAII temp directory for I/O tests: a uniquely named directory under
/// the system temp root, recursively removed on destruction. Path(name)
/// joins a file name onto it, so tests never hand-build /tmp paths (or
/// leak files when an assertion fails before cleanup).
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix = "mochy_test") {
    static int counter = 0;
    const std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        (prefix + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
    std::filesystem::create_directories(base);
    dir_ = base.string();
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  ~ScopedTempDir() {
    std::error_code ec;  // best-effort cleanup; never throw from a dtor
    std::filesystem::remove_all(dir_, ec);
  }

  /// The directory itself.
  const std::string& dir() const { return dir_; }
  /// `name` joined onto the directory.
  std::string Path(const std::string& name) const {
    return (std::filesystem::path(dir_) / name).string();
  }

 private:
  std::string dir_;
};

/// Overwrites `bytes.size()` bytes of the file at `path` starting at
/// `offset` — the corruption primitive for format/recovery tests (flip a
/// checksum, tear a record, scribble over a section). Returns false when
/// the file cannot be opened or is shorter than offset + bytes (a
/// corruption that silently missed its target would make a test pass
/// vacuously).
inline bool CorruptFile(const std::string& path, uint64_t offset,
                        std::span<const unsigned char> bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || offset + bytes.size() > size) return false;
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return false;
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

/// XORs one byte of the file at `path` with `mask` — the minimal
/// guaranteed-to-change corruption (writing a fixed value could be a
/// no-op if the byte already held it).
inline bool FlipFileByte(const std::string& path, uint64_t offset,
                         unsigned char mask = 0xFF) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return false;
  unsigned char byte = 0;
  bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
            std::fread(&byte, 1, 1, f) == 1;
  byte ^= mask;
  ok = ok && std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
       std::fwrite(&byte, 1, 1, f) == 1;
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

/// Region cardinalities of a triple computed by direct set operations.
struct Regions {
  uint64_t d[3];
  uint64_t p[3];  // p[0]=p_ab, p[1]=p_bc, p[2]=p_ca
  uint64_t t;
};

inline Regions ComputeRegions(const std::set<NodeId>& a,
                              const std::set<NodeId>& b,
                              const std::set<NodeId>& c) {
  Regions r{};
  auto in = [](const std::set<NodeId>& s, NodeId v) { return s.count(v) > 0; };
  std::set<NodeId> all;
  all.insert(a.begin(), a.end());
  all.insert(b.begin(), b.end());
  all.insert(c.begin(), c.end());
  for (NodeId v : all) {
    const bool ia = in(a, v), ib = in(b, v), ic = in(c, v);
    if (ia && ib && ic) {
      ++r.t;
    } else if (ia && ib) {
      ++r.p[0];
    } else if (ib && ic) {
      ++r.p[1];
    } else if (ic && ia) {
      ++r.p[2];
    } else if (ia) {
      ++r.d[0];
    } else if (ib) {
      ++r.d[1];
    } else {
      ++r.d[2];
    }
  }
  return r;
}

/// Motif id of a triple of node sets via the pattern tables, or 0 when the
/// triple is not a valid instance (disconnected or duplicate edges).
inline int BruteForceClassify(const std::set<NodeId>& a,
                              const std::set<NodeId>& b,
                              const std::set<NodeId>& c) {
  const Regions r = ComputeRegions(a, b, c);
  PatternBits bits = 0;
  if (r.d[0] > 0) bits |= kPatternDa;
  if (r.d[1] > 0) bits |= kPatternDb;
  if (r.d[2] > 0) bits |= kPatternDc;
  if (r.p[0] > 0) bits |= kPatternPab;
  if (r.p[1] > 0) bits |= kPatternPbc;
  if (r.p[2] > 0) bits |= kPatternPca;
  if (r.t > 0) bits |= kPatternT;
  return MotifIdFromPattern(bits);
}

/// Exact per-motif counts by checking every unordered triple of hyperedges
/// with plain set algebra. O(|E|^3) — small graphs only.
inline MotifCounts BruteForceCounts(const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<std::set<NodeId>> sets(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto span = graph.edge(e);
    sets[e] = std::set<NodeId>(span.begin(), span.end());
  }
  MotifCounts counts;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      for (size_t k = j + 1; k < m; ++k) {
        const int id = BruteForceClassify(sets[i], sets[j], sets[k]);
        if (id != 0) counts[id] += 1.0;
      }
    }
  }
  return counts;
}

/// Per-hyperedge participation rows by the same brute-force triple scan:
/// rows[e][t-1] = instances of motif t containing e, each instance
/// credited to its three member rows. O(|E|^3) — small graphs only.
inline std::vector<std::array<double, kNumHMotifs>> BruteForceRows(
    const Hypergraph& graph) {
  const size_t m = graph.num_edges();
  std::vector<std::set<NodeId>> sets(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto span = graph.edge(e);
    sets[e] = std::set<NodeId>(span.begin(), span.end());
  }
  std::vector<std::array<double, kNumHMotifs>> rows(m);
  for (auto& row : rows) row.fill(0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      for (size_t k = j + 1; k < m; ++k) {
        const int id = BruteForceClassify(sets[i], sets[j], sets[k]);
        if (id == 0) continue;
        rows[i][id - 1] += 1.0;
        rows[j][id - 1] += 1.0;
        rows[k][id - 1] += 1.0;
      }
    }
  }
  return rows;
}

/// Random hypergraph for property sweeps: `num_edges` edges with sizes in
/// [min_size, max_size] over `num_nodes` nodes. Duplicate edges allowed
/// before dedup; builder semantics apply.
inline Hypergraph RandomHypergraph(size_t num_nodes, size_t num_edges,
                                   size_t min_size, size_t max_size,
                                   uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder builder;
  std::vector<NodeId> edge;
  for (size_t e = 0; e < num_edges; ++e) {
    const size_t size = static_cast<size_t>(
        rng.UniformRange(static_cast<int64_t>(min_size),
                         static_cast<int64_t>(max_size)));
    const auto ids = rng.SampleDistinct(num_nodes, std::min(size, num_nodes));
    edge.assign(ids.begin(), ids.end());
    builder.AddEdge(std::span<const NodeId>(edge.data(), edge.size()));
  }
  BuildOptions options;
  options.num_nodes = num_nodes;
  auto result = std::move(builder).Build(options);
  return result.ok() ? std::move(result).value() : Hypergraph();
}

/// One step of a randomized dynamic-graph schedule.
struct DynamicOp {
  enum class Kind {
    kAdd,     ///< ingest `nodes` as a new hyperedge
    kRemove,  ///< remove the `remove_index`-th oldest currently-live edge
    kQuery,   ///< consumer-defined read (e.g. an extra oracle check)
  };
  Kind kind = Kind::kAdd;
  std::vector<NodeId> nodes;  ///< kAdd only
  /// kRemove only: index into the consumer's list of live edges in
  /// insertion order (always < the live count at this step). Indexing
  /// by position instead of edge id keeps the schedule valid for any
  /// engine's id assignment.
  size_t remove_index = 0;
};

/// Seeded add/remove/query interleaving for fuzzing dynamic counting
/// engines. Adds draw Zipf-skewed edge sizes in [1, max_edge_size] with
/// ~1 in 4 adds repeating an earlier edge verbatim (duplicates must
/// reach the delta passes); removes pick a uniformly random live edge
/// and fire with probability `remove_ratio` (when anything is live);
/// queries fire with `query_ratio`. The schedule is a pure function of
/// the arguments — to reproduce a failure, rerun with the seed from the
/// failing test's message.
inline std::vector<DynamicOp> RandomDynamicSchedule(
    size_t num_ops, size_t num_nodes, size_t max_edge_size,
    double remove_ratio, double query_ratio, uint64_t seed) {
  Rng rng(seed);
  std::vector<DynamicOp> ops;
  ops.reserve(num_ops);
  std::vector<std::vector<NodeId>> added;  // verbatim-duplicate pool
  size_t live = 0;
  for (size_t i = 0; i < num_ops; ++i) {
    const double roll = rng.UniformDouble();
    DynamicOp op;
    if (roll < remove_ratio && live > 0) {
      op.kind = DynamicOp::Kind::kRemove;
      op.remove_index = static_cast<size_t>(rng.UniformInt(live));
      --live;
    } else if (roll >= remove_ratio && roll < remove_ratio + query_ratio) {
      // A remove rolled with nothing live degrades to an add (below),
      // never to a query, so query density stays query_ratio exactly.
      op.kind = DynamicOp::Kind::kQuery;
    } else {
      op.kind = DynamicOp::Kind::kAdd;
      if (!added.empty() && rng.UniformInt(4) == 0) {
        op.nodes = added[rng.UniformInt(added.size())];
      } else {
        const size_t size = std::min<uint64_t>(
            rng.Zipf(max_edge_size, 1.2) + 1, num_nodes);
        const auto ids = rng.SampleDistinct(num_nodes, size);
        op.nodes.assign(ids.begin(), ids.end());
      }
      added.push_back(op.nodes);
      ++live;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace mochy::testing

#endif  // MOCHY_TESTS_TEST_UTIL_H_
