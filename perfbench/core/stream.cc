// stream-sliding: a temporal co-authorship trace replayed through
// ReplayTrace in sliding-window mode with a horizon of two window widths,
// so every window both adds and evicts hyperedges. This is the write
// path: hypergraph/dynamic and motif/streaming over the stamp kernels.
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "gen/temporal.h"
#include "hypergraph/builder.h"
#include "hypergraph/temporal_trace.h"
#include "inputs.h"
#include "motif/engine.h"
#include "motif/streaming.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr uint64_t kWindowWidth = 1;
constexpr uint64_t kHorizon = 2 * kWindowWidth;

class StreamScenario : public Scenario {
 public:
  explicit StreamScenario(bool full) : scale_(full ? 1.0 : 0.5) {}

  mochy::Status Setup(const Context& ctx) override {
    mochy::TemporalConfig config = mochy::ScaledTemporalConfig(scale_);
    config.seed = kShapeSeed;
    auto shape = mochy::GenerateTemporalTrace(config);
    if (!shape.ok()) return shape.status();
    const std::string path = ctx.dir + "/stream.txt";
    MOCHY_RETURN_IF_ERROR(
        mochy::SaveTemporalTrace(Relabel(shape.value(), ctx.seed), path));
    const double start = NowSeconds();
    ScopedSpan span(*ctx.tracer, "hypergraph.load_text");
    auto loaded = mochy::LoadTemporalTrace(path);
    if (!loaded.ok()) return loaded.status();
    load_s_ = NowSeconds() - start;
    trace_ = std::move(loaded).value();
    return mochy::Status::OK();
  }

  void Round(const Context& ctx) override {
    Replay(ctx, !last_counts_.has_value());
    // The per-call timings only feed per-layer metrics; once per run.
    if (ctx.tracer->enabled() && add_s_.empty()) TimeUpdates(ctx);
  }

  void Report(Metrics* e2e, Metrics* layers) const override {
    (*e2e)["replay_arrivals_per_s"] = Median(arrivals_per_s_);
    // Not gated end to end: the slowest window of a replay moved by up to
    // 40% between runs of the same code, past any allowed bound.
    (*layers)["motif.streaming.window_p99_ms"] = Median(window_p99_s_) * 1e3;
    (*layers)["hypergraph.load_text_s"] += load_s_;
    (*layers)["motif.streaming.add_us_p50"] = Percentile(add_s_, 50) * 1e6;
    (*layers)["motif.streaming.add_us_p99"] = Percentile(add_s_, 99) * 1e6;
    (*layers)["motif.streaming.remove_us_p50"] =
        Percentile(remove_s_, 50) * 1e6;
    (*layers)["motif.streaming.remove_us_p99"] =
        Percentile(remove_s_, 99) * 1e6;
    (*layers)["motif.streaming.evictions"] = static_cast<double>(evictions_);
  }

 private:
  mochy::ReplayOptions Options(const Context& ctx) const {
    mochy::ReplayOptions options;
    options.streaming.num_threads = ctx.threads;
    options.window_width = kWindowWidth;
    options.mode = mochy::WindowMode::kSliding;
    options.horizon = kHorizon;
    return options;
  }

  void Replay(const Context& ctx, bool check_against_exact) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "op.replay");
    const double start = NowSeconds();
    double last = start;
    std::vector<double> gaps;
    auto result = mochy::ReplayTrace(
        trace_, Options(ctx), [&](const mochy::WindowResult&) {
          const double now = NowSeconds();
          gaps.push_back(now - last);
          last = now;
        });
    const double wall = NowSeconds() - start;
    if (!result.ok() || result.value().windows.empty()) {
      ctx.counters->Fail("replay: " + (result.ok()
                                           ? std::string("no windows")
                                           : result.status().ToString()));
      return;
    }
    arrivals_per_s_.push_back(static_cast<double>(trace_.size()) / wall);
    // p99 per replay, median over replays: one slow stretch of the host
    // moves one replay's figure, not the run's.
    window_p99_s_.push_back(Percentile(gaps, 99));
    const mochy::WindowResult& final_window = result.value().windows.back();
    if (last_counts_.has_value() &&
        !SameBits(*last_counts_, final_window.counts)) {
      ctx.counters->Fail("replay: last window changed between replays");
    }
    last_counts_ = final_window.counts;
    if (check_against_exact) CheckLastWindow(ctx, final_window);
  }

  // The last window must equal a MoCHy-E count of the arrivals inside
  // its horizon (duplicates kept: a stream has no dedup point).
  void CheckLastWindow(const Context& ctx, const mochy::WindowResult& window) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "op.replay_check");
    const uint64_t cutoff =
        window.end_time >= kHorizon ? window.end_time - kHorizon : 0;
    mochy::HypergraphBuilder builder;
    for (const mochy::TimedEdge& arrival : trace_.arrivals) {
      if (arrival.time >= cutoff && arrival.time < window.end_time) {
        builder.AddEdge(arrival.nodes);
      }
    }
    mochy::BuildOptions build;
    build.dedup_edges = false;
    auto graph = std::move(builder).Build(build);
    if (!graph.ok()) {
      ctx.counters->Fail("replay check: " + graph.status().ToString());
      return;
    }
    auto engine = mochy::MotifEngine::Create(graph.value(), ctx.threads);
    mochy::EngineOptions options;
    options.algorithm = mochy::Algorithm::kExact;
    options.num_threads = ctx.threads;
    auto exact = engine.ok() ? engine.value().Count(options)
                             : mochy::Result<mochy::EngineResult>(
                                   engine.status());
    if (!exact.ok() || !SameBits(exact.value().counts, window.counts)) {
      ctx.counters->Fail("replay: last sliding window differs from MoCHy-E");
    }
  }

  // The sliding replay again, calling StreamingEngine directly so every
  // AddEdge and RemoveEdge is timed on its own.
  void TimeUpdates(const Context& ctx) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "motif.streaming.timed_updates");
    mochy::StreamingEngine engine(Options(ctx).streaming);
    std::deque<std::pair<mochy::EdgeId, uint64_t>> live;
    const uint64_t origin = trace_.arrivals.front().time;
    size_t index = 0;
    while (index < trace_.size()) {
      const uint64_t start =
          origin + (trace_.arrivals[index].time - origin) / kWindowWidth *
                       kWindowWidth;
      const uint64_t end = start + kWindowWidth;
      const uint64_t cutoff = end >= kHorizon ? end - kHorizon : 0;
      while (!live.empty() && live.front().second < cutoff) {
        const double t0 = NowSeconds();
        const mochy::Status removed = engine.RemoveEdge(live.front().first);
        remove_s_.push_back(NowSeconds() - t0);
        if (!removed.ok()) {
          ctx.counters->Fail("RemoveEdge: " + removed.ToString());
          return;
        }
        live.pop_front();
        ++evictions_;
      }
      for (; index < trace_.size() && trace_.arrivals[index].time < end;
           ++index) {
        const mochy::TimedEdge& arrival = trace_.arrivals[index];
        const double t0 = NowSeconds();
        auto added = engine.AddEdge(arrival.nodes);
        add_s_.push_back(NowSeconds() - t0);
        if (!added.ok()) {
          ctx.counters->Fail("AddEdge: " + added.status().ToString());
          return;
        }
        live.emplace_back(added.value(), arrival.time);
      }
    }
    if (last_counts_.has_value() && !SameBits(*last_counts_, engine.counts())) {
      ctx.counters->Fail("timed updates: final counts differ from ReplayTrace");
    }
  }

  const double scale_;
  mochy::TemporalTrace trace_;
  std::optional<mochy::MotifCounts> last_counts_;
  uint64_t evictions_ = 0;
  double load_s_ = 0.0;
  std::vector<double> arrivals_per_s_, window_p99_s_;
  std::vector<double> add_s_, remove_s_;
};

}  // namespace

std::unique_ptr<Scenario> MakeStreamScenario(bool full) {
  return std::make_unique<StreamScenario>(full);
}

}  // namespace perfbench
