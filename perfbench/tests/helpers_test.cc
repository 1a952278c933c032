// Tests of the benchmark's own helpers: order statistics, the open-loop
// schedule and latency accounting, span self time, and the seeded
// relabeling of inputs.
//
//   perfbench_helpers_test    (exit code 0 when every check passes)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "gen/temporal.h"
#include "inputs.h"
#include "motif/engine.h"
#include "openloop.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void TestPercentileAndMedianAgainstSort() {
  mochy::Rng rng(42);
  for (size_t n = 1; n <= 60; ++n) {
    std::vector<double> values;
    for (size_t i = 0; i < n; ++i) {
      // Few distinct values, so ties are common.
      values.push_back(static_cast<double>(rng.UniformInt(n / 2 + 1)));
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
      size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
      if (rank == 0) rank = 1;
      CHECK(Percentile(values, p) == sorted[rank - 1]);
    }
    const double median = n % 2 == 1
                              ? sorted[n / 2]
                              : (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0;
    CHECK(Median(values) == median);
  }
  CHECK(std::isnan(Percentile({}, 50)));
  CHECK(std::isnan(Median({})));
}

void TestScheduleIsDeterministicPerSeed() {
  const std::vector<double> weights = HotSkewWeights(9, 300, 200, 0.01, 0.5);
  CHECK(weights == HotSkewWeights(9, 300, 200, 0.01, 0.5));
  double total = 0.0;
  size_t hot = 0;
  for (size_t k = 0; k < weights.size(); ++k) {
    total += weights[k];
    if (weights[k] > 0.01) {
      ++hot;
      CHECK(k < 200);  // hot keys come from the candidates only
    }
  }
  CHECK(hot == 3);
  CHECK(std::fabs(total - 1.0) < 1e-9);

  const auto a = MakeSchedule(7, 500.0, 2.0, weights);
  const auto b = MakeSchedule(7, 500.0, 2.0, weights);
  const auto c = MakeSchedule(8, 500.0, 2.0, weights);
  CHECK(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].due_s == b[i].due_s && a[i].key == b[i].key;
  }
  CHECK(same);
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].due_s != c[i].due_s || a[i].key != c[i].key;
  }
  CHECK(differs);
  CHECK(a.size() > 850 && a.size() < 1150);  // ~Poisson(1000)
  for (size_t i = 1; i < a.size(); ++i) CHECK(a[i].due_s > a[i - 1].due_s);
  CHECK(a.back().due_s < 2.0);
}

void TestLatencyCountsFromDueTime() {
  // One connection, a request due every 2 ms; the handler of request 3
  // stalls for 30 ms, which the requests due during the stall must see.
  std::vector<Arrival> schedule;
  for (uint32_t i = 0; i < 20; ++i) schedule.push_back(Arrival{0.002 * i, i});
  const auto records =
      RunOpenLoop(schedule, 1, [](size_t, uint32_t key) {
        if (key == 3) std::this_thread::sleep_for(std::chrono::milliseconds(30));
        Outcome outcome;
        outcome.ok = true;
        return outcome;
      });
  CHECK(records.size() == schedule.size());
  CHECK(records[1].latency_s() < 0.010);
  CHECK(records[3].latency_s() >= 0.030);
  // Request 4 was due 2 ms after request 3 and waited out the stall.
  CHECK(records[4].latency_s() >= 0.027);
  CHECK(records[4].lateness_s() >= 0.027);
  for (uint32_t i = 4; i < 17; ++i) {
    CHECK(records[i].send_s >= records[3].done_s);
  }
  // About 14 requests fell due during the stall.
  CHECK(MaxBacklog(records) >= 12);
}

void TestSpanSelfTime() {
  std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},    // overlaps a: the union [1, 6] is counted once
      {"a.child", 2.0, 3.0, 1, 1},
      {"late", 9.0, 12.0, 0, 1},  // clipped to the parent's end
  };
  const std::vector<double> self = SelfTimes(spans);
  CHECK(std::fabs(self[0] - 4.0) < 1e-12);  // 10 - [1,6] - [9,10]
  CHECK(std::fabs(self[1] - 2.0) < 1e-12);
  CHECK(std::fabs(self[2] - 3.0) < 1e-12);
  CHECK(std::fabs(self[3] - 1.0) < 1e-12);
  CHECK(std::fabs(self[4] - 3.0) < 1e-12);
  spans.push_back({"a", 20.0, 21.5, -1, 2});
  const auto by_name = SelfTimeByName(spans);
  CHECK(std::fabs(by_name.at("a").first - 3.5) < 1e-12);
  CHECK(by_name.at("a").second == 2);

  // The recorder nests spans by thread and hands the op id down.
  Tracer tracer(true);
  {
    ScopedSpan outer(tracer, "outer", 77);
    ScopedSpan inner(tracer, "inner");
  }
  const auto recorded = tracer.spans();
  CHECK(recorded.size() == 2);
  CHECK(recorded[1].parent == 0);
  CHECK(recorded[1].op_id == 77);
  CHECK(recorded[0].end_s >= recorded[1].end_s);

  Tracer off(false);
  { ScopedSpan span(off, "ignored"); }
  CHECK(off.spans().empty());
}

mochy::MotifCounts ExactCounts(const mochy::Hypergraph& graph) {
  auto engine = mochy::MotifEngine::Create(graph, 1);
  CHECK(engine.ok());
  mochy::EngineOptions options;
  options.algorithm = mochy::Algorithm::kExact;
  options.num_threads = 1;
  auto result = engine.value().Count(options);
  CHECK(result.ok());
  return result.value().counts;
}

bool SameEdges(const mochy::Hypergraph& a, const mochy::Hypergraph& b) {
  if (a.num_edges() != b.num_edges()) return false;
  for (mochy::EdgeId e = 0; e < a.num_edges(); ++e) {
    const auto x = a.edge(e);
    const auto y = b.edge(e);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

void TestRelabelKeepsTheWork() {
  auto shape = mochy::GenerateDomainHypergraph(
      mochy::DefaultConfig(mochy::Domain::kContact, 0.1));
  CHECK(shape.ok());
  const mochy::Hypergraph& graph = shape.value();
  auto a = Relabel(graph, 3);
  auto b = Relabel(graph, 3);
  auto c = Relabel(graph, 4);
  CHECK(a.ok() && b.ok() && c.ok());
  CHECK(SameEdges(a.value(), b.value()));
  CHECK(!SameEdges(a.value(), c.value()));
  CHECK(a.value().num_nodes() == graph.num_nodes());
  CHECK(a.value().num_pins() == graph.num_pins());
  const mochy::MotifCounts counts = ExactCounts(graph);
  CHECK(counts.Total() > 0);
  for (const auto* relabeled : {&a.value(), &c.value()}) {
    const mochy::MotifCounts other = ExactCounts(*relabeled);
    for (int t = 1; t <= mochy::kNumHMotifs; ++t) CHECK(other[t] == counts[t]);
  }

  auto trace = mochy::GenerateTemporalTrace(mochy::ScaledTemporalConfig(0.05));
  CHECK(trace.ok());
  const mochy::TemporalTrace x = Relabel(trace.value(), 3);
  const mochy::TemporalTrace y = Relabel(trace.value(), 3);
  CHECK(x.size() == trace.value().size());
  bool same = true, moved = false;
  for (size_t i = 0; i < x.size(); ++i) {
    same = same && x.arrivals[i].nodes == y.arrivals[i].nodes;
    moved = moved || x.arrivals[i].nodes != trace.value().arrivals[i].nodes;
    CHECK(x.arrivals[i].time == trace.value().arrivals[i].time);
    CHECK(x.arrivals[i].nodes.size() == trace.value().arrivals[i].nodes.size());
  }
  CHECK(same && moved);
}

}  // namespace

int main() {
  TestPercentileAndMedianAgainstSort();
  TestScheduleIsDeterministicPerSeed();
  TestLatencyCountsFromDueTime();
  TestSpanSelfTime();
  TestRelabelKeepsTheWork();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
