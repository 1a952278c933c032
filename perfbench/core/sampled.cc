// sampled-sparse: MoCHy-A+ on a large sparse co-authorship graph, in
// memory and out of core, plus the characteristic-profile pipeline.
// Load, projection build, the lazy memo with its spill tier, Chung-Lu
// generation and the batch runner carry the time; the exact kernel runs
// only once per set-up, for the reference counts.
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "gen/generators.h"
#include "hypergraph/binary_format.h"
#include "hypergraph/io.h"
#include "inputs.h"
#include "motif/engine.h"
#include "profile/significance.h"
#include "random/chung_lu.h"
#include "stats.h"

namespace perfbench {
namespace {

using mochy::Algorithm;
using mochy::EngineOptions;
using mochy::MotifEngine;
using mochy::ProjectionPolicy;

// Distinct sampler seeds per slice. The error metric averages over all of
// them, so it is a fixed function of the run seed and the slice.
constexpr size_t kSamplerSeeds = 12;

class SampledScenario : public Scenario {
 public:
  // The probe runs the full-size graph too: on a smaller one the calls
  // last a few tens of milliseconds, and their 4-thread wall time then
  // follows how fast the host wakes idle threads (up to 1.7x between
  // runs, at the same CPU time) more than the code.
  explicit SampledScenario(bool) : scale_(16.0) {}

  mochy::Status Setup(const Context& ctx) override {
    mochy::GeneratorConfig config =
        mochy::DefaultConfig(mochy::Domain::kCoauthorship, scale_);
    config.seed = kShapeSeed;
    auto shape = mochy::GenerateDomainHypergraph(config);
    if (!shape.ok()) return shape.status();
    auto generated = Relabel(shape.value(), ctx.seed);
    if (!generated.ok()) return generated.status();
    text_path_ = ctx.dir + "/sampled.txt";
    binary_path_ = ctx.dir + "/sampled.mhg";
    spill_dir_ = ctx.dir + "/spill";
    MOCHY_RETURN_IF_ERROR(mochy::SaveHypergraph(generated.value(), text_path_));
    MOCHY_RETURN_IF_ERROR(
        mochy::SaveHypergraphBinary(generated.value(), binary_path_));
    {
      const double start = NowSeconds();
      ScopedSpan span(*ctx.tracer, "hypergraph.load_text");
      auto loaded = mochy::LoadHypergraph(text_path_);
      if (!loaded.ok()) return loaded.status();
      load_s_ = NowSeconds() - start;
      graph_ = std::move(loaded).value();
    }
    // Reference counts for the error metric, and the materialized
    // footprint the out-of-core budget is a tenth of.
    ScopedSpan span(*ctx.tracer, "op.reference_exact");
    auto engine = MotifEngine::Create(graph_, ctx.threads);
    if (!engine.ok()) return engine.status();
    EngineOptions options;
    options.algorithm = Algorithm::kExact;
    options.num_threads = ctx.threads;
    auto exact = engine.value().Count(options);
    if (!exact.ok()) return exact.status();
    reference_ = exact.value().counts;
    budget_bytes_ = std::max<uint64_t>(
        1, exact.value().stats.projection_bytes / 10);
    return mochy::Status::OK();
  }

  // Two sampler seeds per round: the error metric needs all
  // kSamplerSeeds of them, while the out-of-core count and the profile
  // cost more and run once per round.
  void Round(const Context& ctx) override {
    std::optional<mochy::MotifCounts> estimate;
    uint64_t sampler_seed = 0;
    for (int i = 0; i < 2; ++i) {
      sampler_seed = ctx.seed * 1000003 + ctx.slice * kSamplerSeeds +
                     next_seed_++ % kSamplerSeeds;
      estimate = Sample(ctx, sampler_seed);
      if (estimate.has_value() && errors_.size() < kSamplerSeeds) {
        errors_.push_back(estimate->RelativeError(reference_));
      }
    }
    OutOfCore(ctx, sampler_seed, estimate);
    Profile(ctx, sampler_seed);
    if (ctx.tracer->enabled()) ChungLu(ctx, sampler_seed);
  }

  int MinRounds() const override {
    return static_cast<int>(kSamplerSeeds / 2);
  }

  void Report(Metrics* e2e, Metrics* layers) const override {
    (*e2e)["sample_count_s"] = Median(sample_s_);
    (*e2e)["sample_rel_error"] = Mean(errors_);
    (*e2e)["ooc_count_s"] = Median(ooc_s_);
    (*e2e)["profile_s"] = Median(profile_s_);
    (*layers)["hypergraph.load_text_s"] += load_s_;
    (*layers)["hypergraph.mmap_open_s"] = Median(mmap_s_);
    (*layers)["hypergraph.projection_build_s"] = Median(build_s_);
    (*layers)["hypergraph.projection_bytes"] =
        static_cast<double>(projection_bytes_);
    (*layers)["hypergraph.wedges"] = static_cast<double>(wedges_);
    (*layers)["hypergraph.lazy.hit_rate"] = Median(lazy_hit_rate_);
    (*layers)["hypergraph.lazy.recomputes"] = Median(lazy_recomputes_);
    (*layers)["hypergraph.lazy.peak_bytes"] = Median(lazy_peak_bytes_);
    (*layers)["hypergraph.spill.appends"] = Median(spill_appends_);
    (*layers)["hypergraph.spill.readmits"] = Median(spill_readmits_);
    (*layers)["hypergraph.spill.fallbacks"] = Median(spill_fallbacks_);
    (*layers)["hypergraph.spill.disk_hit_rate"] = Median(disk_hit_rate_);
    (*layers)["motif.aplus.kernel_s"] = Median(kernel_s_);
    (*layers)["motif.aplus.samples_per_s"] = Median(samples_per_s_);
    (*layers)["motif.batch.busy_s"] = Median(batch_busy_s_);
    (*layers)["motif.batch.utilization"] = Median(batch_utilization_);
    (*layers)["random.chung_lu_s"] = Median(chung_lu_s_);
  }

  void Teardown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

 private:
  EngineOptions SamplerOptions(const Context& ctx, uint64_t seed) const {
    EngineOptions options;
    options.algorithm = Algorithm::kLinkSample;
    options.sampling_ratio = 0.1;
    options.seed = seed;
    options.num_threads = ctx.threads;
    return options;
  }

  // Materialized MoCHy-A+: Create + Count.
  std::optional<mochy::MotifCounts> Sample(const Context& ctx, uint64_t seed) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "op.sample_count");
    EngineOptions options = SamplerOptions(ctx, seed);
    options.projection = ProjectionPolicy::kMaterialized;
    const double start = NowSeconds();
    auto engine = [&] {
      ScopedSpan span(*ctx.tracer, "hypergraph.projection_build");
      return MotifEngine::Create(graph_, options);
    }();
    const double built = NowSeconds();
    if (!engine.ok()) {
      ctx.counters->Fail("sample: Create: " + engine.status().ToString());
      return std::nullopt;
    }
    auto result = [&] {
      ScopedSpan span(*ctx.tracer, "motif.aplus.count");
      return engine.value().Count(options);
    }();
    if (!result.ok()) {
      ctx.counters->Fail("sample: Count: " + result.status().ToString());
      return std::nullopt;
    }
    sample_s_.push_back(NowSeconds() - start);
    build_s_.push_back(built - start);
    const mochy::EngineStats& stats = result.value().stats;
    kernel_s_.push_back(stats.elapsed_seconds);
    samples_per_s_.push_back(static_cast<double>(stats.samples_used) /
                             stats.elapsed_seconds);
    projection_bytes_ = stats.projection_bytes;
    wedges_ = stats.num_wedges;
    return result.value().counts;
  }

  // Out of core: map the .mhg file, lazy engine at a tenth of the
  // materialized footprint with the spill tier, Count at the same seed.
  // The estimate must equal the materialized one bit for bit.
  void OutOfCore(const Context& ctx, uint64_t seed,
                 const std::optional<mochy::MotifCounts>& materialized) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "op.ooc_count");
    const double start = NowSeconds();
    auto graph = [&] {
      ScopedSpan span(*ctx.tracer, "hypergraph.mmap_open");
      return mochy::LoadHypergraphBinary(binary_path_);
    }();
    mmap_s_.push_back(NowSeconds() - start);
    if (!graph.ok()) {
      ctx.counters->Fail("ooc: open: " + graph.status().ToString());
      return;
    }
    EngineOptions options = SamplerOptions(ctx, seed);
    options.projection = ProjectionPolicy::kLazy;
    options.memory_budget = budget_bytes_;
    options.spill_dir = spill_dir_;
    auto engine = [&] {
      ScopedSpan span(*ctx.tracer, "hypergraph.lazy_build");
      return MotifEngine::Create(graph.value(), options);
    }();
    if (!engine.ok()) {
      ctx.counters->Fail("ooc: Create: " + engine.status().ToString());
      return;
    }
    auto result = [&] {
      ScopedSpan span(*ctx.tracer, "motif.aplus.count_lazy");
      return engine.value().Count(options);
    }();
    if (!result.ok()) {
      ctx.counters->Fail("ooc: Count: " + result.status().ToString());
      return;
    }
    ooc_s_.push_back(NowSeconds() - start);
    const mochy::EngineStats& stats = result.value().stats;
    lazy_hit_rate_.push_back(stats.lazy_hit_rate);
    lazy_recomputes_.push_back(static_cast<double>(stats.lazy_recomputes));
    lazy_peak_bytes_.push_back(static_cast<double>(stats.projection_peak_bytes));
    spill_appends_.push_back(static_cast<double>(stats.lazy_spills));
    spill_readmits_.push_back(static_cast<double>(stats.lazy_spill_readmits));
    spill_fallbacks_.push_back(static_cast<double>(stats.lazy_spill_fallbacks));
    const double misses = static_cast<double>(stats.lazy_spill_readmits +
                                              stats.lazy_recomputes);
    disk_hit_rate_.push_back(
        misses > 0 ? static_cast<double>(stats.lazy_spill_readmits) / misses
                   : 0.0);
    if (materialized.has_value() &&
        !SameBits(*materialized, result.value().counts)) {
      ctx.counters->Fail("ooc: estimate differs from the materialized one");
    }
  }

  // Characteristic profile against 5 Chung-Lu null graphs, MoCHy-A+.
  void Profile(const Context& ctx, uint64_t seed) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "op.profile");
    mochy::CharacteristicProfileOptions options;
    options.num_random_graphs = 5;
    options.seed = seed;
    options.num_threads = ctx.threads;
    options.sample_ratio = 0.1;
    const double start = NowSeconds();
    auto profile = [&] {
      ScopedSpan span(*ctx.tracer, "profile.characteristic_profile");
      return mochy::ComputeCharacteristicProfile(graph_, options);
    }();
    if (!profile.ok()) {
      ctx.counters->Fail("profile: " + profile.status().ToString());
      return;
    }
    profile_s_.push_back(NowSeconds() - start);
    batch_busy_s_.push_back(profile.value().batch.busy_seconds);
    batch_utilization_.push_back(profile.value().batch.pool_utilization);
  }

  // One null graph drawn on its own, to time the generator alone.
  void ChungLu(const Context& ctx, uint64_t seed) {
    ctx.counters->Attempt();
    ScopedSpan op(*ctx.tracer, "random.chung_lu");
    mochy::ChungLuOptions options;
    options.seed = seed;
    const double start = NowSeconds();
    auto null_graph = mochy::GenerateChungLu(graph_, options);
    if (!null_graph.ok()) {
      ctx.counters->Fail("chung-lu: " + null_graph.status().ToString());
      return;
    }
    chung_lu_s_.push_back(NowSeconds() - start);
  }

  const double scale_;
  std::string text_path_, binary_path_, spill_dir_;
  mochy::Hypergraph graph_;
  mochy::MotifCounts reference_;
  uint64_t budget_bytes_ = 1;
  uint64_t projection_bytes_ = 0;
  uint64_t wedges_ = 0;
  size_t next_seed_ = 0;
  double load_s_ = 0.0;
  std::vector<double> errors_;
  std::vector<double> sample_s_, build_s_, kernel_s_, samples_per_s_;
  std::vector<double> ooc_s_, mmap_s_, lazy_hit_rate_, lazy_recomputes_,
      lazy_peak_bytes_, spill_appends_, spill_readmits_, spill_fallbacks_,
      disk_hit_rate_;
  std::vector<double> profile_s_, batch_busy_s_, batch_utilization_;
  std::vector<double> chung_lu_s_;
};

}  // namespace

std::unique_ptr<Scenario> MakeSampledScenario(bool full) {
  return std::make_unique<SampledScenario>(full);
}

}  // namespace perfbench
