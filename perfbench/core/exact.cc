// exact-dense: MoCHy-E and per-edge counting on a dense contact-domain
// graph, where the enumeration kernel carries almost all of the time.
//
// The contact domain stands in for the email domain named in the
// benchmark's design notes: email graphs hold one hub whose degree sets
// the MoCHy-E work (2.1-6.7 s over generator seeds 1-6), so one fixed
// email graph would stand for one arbitrary hub, while contact graphs
// are as dense (about 50 wedges per edge) without a dominant hub. The
// run seed relabels one fixed graph (inputs.h).
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "hypergraph/io.h"
#include "inputs.h"
#include "motif/engine.h"
#include "stats.h"

namespace perfbench {
namespace {

using mochy::Algorithm;
using mochy::EngineOptions;
using mochy::MotifEngine;

class ExactScenario : public Scenario {
 public:
  explicit ExactScenario(bool full) : scale_(full ? 1.0 : 0.4) {}

  mochy::Status Setup(const Context& ctx) override {
    mochy::GeneratorConfig config =
        mochy::DefaultConfig(mochy::Domain::kContact, scale_);
    config.seed = kShapeSeed;
    auto shape = mochy::GenerateDomainHypergraph(config);
    if (!shape.ok()) return shape.status();
    auto generated = Relabel(shape.value(), ctx.seed);
    if (!generated.ok()) return generated.status();
    const std::string path = ctx.dir + "/exact.txt";
    MOCHY_RETURN_IF_ERROR(mochy::SaveHypergraph(generated.value(), path));
    const double start = NowSeconds();
    ScopedSpan span(*ctx.tracer, "hypergraph.load_text");
    auto loaded = mochy::LoadHypergraph(path);
    if (!loaded.ok()) return loaded.status();
    load_s_ = NowSeconds() - start;
    graph_ = std::move(loaded).value();
    return mochy::Status::OK();
  }

  void Round(const Context& ctx) override {
    auto four = Count(ctx, ctx.threads, &exact_s_, &kernel_s_);
    auto one = Count(ctx, 1, &exact_1t_s_, &kernel_1t_s_);
    if (four.has_value() && one.has_value() && !SameBits(*four, *one)) {
      ctx.counters->Fail("exact: MoCHy-E at 1 and " +
                         std::to_string(ctx.threads) + " threads differ");
    }
    if (!four.has_value()) return;
    PerEdge(ctx, ctx.threads, *four, &per_edge_s_, &per_edge_kernel_s_);
    // The 1-thread per-edge run only feeds a per-layer metric.
    if (ctx.tracer->enabled()) {
      PerEdge(ctx, 1, *four, &per_edge_1t_s_, &per_edge_kernel_1t_s_);
    }
  }

  void Report(Metrics* e2e, Metrics* layers) const override {
    (*e2e)["exact_count_s"] = Median(exact_s_);
    (*e2e)["exact_count_1t_s"] = Median(exact_1t_s_);
    (*e2e)["per_edge_s"] = Median(per_edge_s_);
    const double kernel = Median(kernel_s_);
    (*layers)["hypergraph.load_text_s"] += load_s_;
    (*layers)["motif.exact.kernel_s"] = kernel;
    (*layers)["motif.exact.hubs_per_s"] =
        static_cast<double>(graph_.num_edges()) / kernel;
    (*layers)["motif.exact.speedup_4t"] = Median(kernel_1t_s_) / kernel;
    (*layers)["motif.per_edge.kernel_s"] = Median(per_edge_kernel_s_);
    (*layers)["motif.per_edge.speedup_4t"] =
        Median(per_edge_kernel_1t_s_) / Median(per_edge_kernel_s_);
  }

 private:
  // Create + Count with MoCHy-E; returns the counts when every call
  // succeeded and the counts match the first round's bit for bit.
  std::optional<mochy::MotifCounts> Count(const Context& ctx, size_t threads,
                                          std::vector<double>* wall,
                                          std::vector<double>* kernel) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, threads == 1 ? "op.exact_count_1t"
                                            : "op.exact_count");
    const double start = NowSeconds();
    auto engine = [&] {
      ScopedSpan span(*ctx.tracer, "hypergraph.projection_build");
      return MotifEngine::Create(graph_, threads);
    }();
    if (!engine.ok()) {
      ctx.counters->Fail("exact: Create: " + engine.status().ToString());
      return std::nullopt;
    }
    EngineOptions options;
    options.algorithm = Algorithm::kExact;
    options.num_threads = threads;
    auto result = [&] {
      ScopedSpan span(*ctx.tracer, "motif.exact.count");
      return engine.value().Count(options);
    }();
    if (!result.ok()) {
      ctx.counters->Fail("exact: Count: " + result.status().ToString());
      return std::nullopt;
    }
    wall->push_back(NowSeconds() - start);
    kernel->push_back(result.value().stats.elapsed_seconds);
    if (!first_.has_value()) first_ = result.value().counts;
    if (!SameBits(*first_, result.value().counts)) {
      ctx.counters->Fail("exact: counts changed between rounds");
      return std::nullopt;
    }
    return result.value().counts;
  }

  // Create + CountPerEdge; checks that every column sums to exactly 3x
  // the exact count of its motif.
  void PerEdge(const Context& ctx, size_t threads,
               const mochy::MotifCounts& exact, std::vector<double>* wall,
               std::vector<double>* kernel) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, threads == 1 ? "op.per_edge_1t" : "op.per_edge");
    const double start = NowSeconds();
    auto engine = [&] {
      ScopedSpan span(*ctx.tracer, "hypergraph.projection_build");
      return MotifEngine::Create(graph_, threads);
    }();
    if (!engine.ok()) {
      ctx.counters->Fail("per-edge: Create: " + engine.status().ToString());
      return;
    }
    EngineOptions options;
    options.num_threads = threads;
    auto result = [&] {
      ScopedSpan span(*ctx.tracer, "motif.per_edge.count");
      return engine.value().CountPerEdge(options);
    }();
    if (!result.ok()) {
      ctx.counters->Fail("per-edge: " + result.status().ToString());
      return;
    }
    wall->push_back(NowSeconds() - start);
    kernel->push_back(result.value().stats.elapsed_seconds);
    for (int t = 1; t <= mochy::kNumHMotifs; ++t) {
      double column = 0.0;
      for (const auto& row : result.value().rows) column += row[t - 1];
      if (column != 3.0 * exact[t]) {
        ctx.counters->Fail("per-edge: column " + std::to_string(t) +
                           " does not sum to 3x the exact count");
        return;
      }
    }
  }

  const double scale_;
  mochy::Hypergraph graph_;
  std::optional<mochy::MotifCounts> first_;
  double load_s_ = 0.0;
  std::vector<double> exact_s_, kernel_s_, exact_1t_s_, kernel_1t_s_;
  std::vector<double> per_edge_s_, per_edge_kernel_s_;
  std::vector<double> per_edge_1t_s_, per_edge_kernel_1t_s_;
};

}  // namespace

std::unique_ptr<Scenario> MakeExactScenario(bool full) {
  return std::make_unique<ExactScenario>(full);
}

}  // namespace perfbench
