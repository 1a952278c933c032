// perfbench runner: one benchmark run of one workload.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--slice <k>] [--rev <source revision>]
//
// Every run drives all four scenarios (exact-dense, sampled-sparse,
// serve-hot, stream-sliding), because every run reports every end-to-end
// metric. A workload names two of them, which run at full size with 30%
// of the time budget each; the other two run as probes with 20% each,
// so their metrics exist and are measured, on smaller inputs (the
// sampled-sparse probe keeps the full-size graph, see sampled.cc).
// setup_s is the median of kSetups set-ups from scratch (input
// generation, file writes, loads, reference answers, server start); they
// count against --seconds. perfbench/run.py runs the runner as several
// slices (processes) on the same inputs and combines them.
//
// stdout: one line stamping host and configuration, then the result
// line {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
// metrics are the per-layer ones, the spans go to
// .bench_out/trace-<workload>-<seed>-<slice>.json, and overhead is measured by
// alternating recorded and unrecorded rounds.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

constexpr double kFocusShare = 0.3;
constexpr double kProbeShare = 0.2;
constexpr double kBlockSeconds = 1.0;
constexpr int kSetups = 3;
constexpr size_t kServeIndex = 2;  // position of serve-hot in kScenarios

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int slice = 0;
  std::string rev = "unknown";
};

// The four scenarios, in a fixed order.
std::unique_ptr<Scenario> (*const kScenarios[])(bool full) = {
    MakeExactScenario,   // exact-dense
    MakeSampledScenario, // sampled-sparse
    MakeServeScenario,   // serve-hot
    MakeStreamScenario,  // stream-sliding
};
constexpr size_t kNumScenarios = std::size(kScenarios);

// A workload: which scenarios run at full size.
struct WorkloadSpec {
  const char* name;
  bool full[kNumScenarios];
};

// exact-dense shares its stamp kernels with stream-sliding, which runs
// them on the write path; sampled-sparse and serve-hot both load the
// projection, storage and cache layers.
const WorkloadSpec kWorkloads[] = {
    {"exact-stream", {true, false, false, true}},
    {"sampled-serve", {false, true, true, false}},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<exact-stream|sampled-serve> "
               "--seed N --seconds S --trace 0|1 [--slice K] [--rev REV]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--slice") {
      args->slice = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->slice < 0) return false;
    } else if (flag == "--rev") {
      args->rev = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// Refuses to time a build whose numbers would mislead.
const char* UntimeableBuild() {
#ifndef NDEBUG
  return "assertions are on (NDEBUG undefined): build with -DNDEBUG";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type is not Release or RelWithDebInfo";
  }
  return nullptr;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

// Unit of a metric, from its name.
std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_per_s") || ends("_qps")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_ms") || name.find("_ms_") != std::string::npos) return "ms";
  if (name.find("_us") != std::string::npos) return "us";
  if (ends("_mb")) return "MB";
  if (ends("_bytes") || ends(".bytes")) return "bytes";
  if (ends("_frac") || ends("rate") || ends("utilization") ||
      ends("error") || ends("speedup_4t")) {
    return "ratio";
  }
  return "count";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += (first ? "" : ", ") + Quote(name) + ": {\"value\": " +
           Number(value) + ", \"unit\": " + Quote(UnitOf(name)) + "}";
    first = false;
  }
  return out + "}";
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown workload");
  if (const char* why = UntimeableBuild()) {
    std::fprintf(stderr, "perfbench_runner: refusing to time: %s\n", why);
    return 3;
  }

  Counters counters;
  Tracer tracer(args.trace);
  Context ctx;
  ctx.seed = args.seed;
  ctx.slice = static_cast<uint64_t>(args.slice);
  ctx.threads = std::min<size_t>(4, mochy::DefaultThreadCount());
  ctx.dir = ".bench_out/run-" + args.workload + "-" +
            std::to_string(args.seed) + "-" + std::to_string(::getpid());
  ctx.tracer = &tracer;
  ctx.counters = &counters;
  std::error_code ec;
  std::filesystem::create_directories(ctx.dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench_runner: cannot create %s\n",
                 ctx.dir.c_str());
    return 1;
  }

  std::vector<std::unique_ptr<Scenario>> scenarios;
  std::vector<bool> focus;
  auto teardown = [&] {
    for (auto& scenario : scenarios) scenario->Teardown();
    scenarios.clear();
  };
  auto cleanup = [&] {
    teardown();
    std::filesystem::remove_all(ctx.dir, ec);
  };

  // One set-up takes about a second, a stretch over which the host's
  // speed drifts by tens of percent, so it is repeated from scratch and
  // the median reported; the rounds run on the last set-up's state.
  const double deadline = NowSeconds() + args.seconds;
  std::vector<double> setup_times;
  for (int k = 0; k < kSetups; ++k) {
    teardown();
    focus.clear();
    for (size_t i = 0; i < kNumScenarios; ++i) {
      focus.push_back(spec->full[i]);
      scenarios.push_back(kScenarios[i](focus.back()));
    }
    ScopedSpan span(tracer, "op.setup");
    const double start = NowSeconds();
    for (auto& scenario : scenarios) {
      const mochy::Status status = scenario->Setup(ctx);
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench_runner: set-up failed: %s\n",
                     status.ToString().c_str());
        cleanup();
        return 1;
      }
    }
    setup_times.push_back(NowSeconds() - start);
  }

  // Interleave the scenarios' rounds over the whole run: each round goes
  // to the scenario furthest below its share of the time, so every
  // metric is sampled across the same stretch of a host whose speed
  // drifts over seconds. In traced runs every other round of a scenario
  // records no spans; comparing the two kinds of round gives the tracing
  // overhead.
  const size_t n = scenarios.size();
  std::vector<double> busy(n, 0.0);
  std::vector<int> rounds(n, 0);
  std::vector<std::vector<double>> traced_s(n), untraced_s(n);
  auto behind = [&](size_t i) {
    return busy[i] / (focus[i] ? kFocusShare : kProbeShare);
  };
  while (true) {
    const bool over = NowSeconds() >= deadline;
    size_t next = n;
    for (size_t i = 0; i < n; ++i) {
      if (over && rounds[i] >= scenarios[i]->MinRounds()) continue;
      if (next == n || behind(i) < behind(next)) next = i;
    }
    if (next == n) break;
    // A block of rounds of one scenario lasts at least kBlockSeconds (or
    // until the deadline), so the cold first round after another
    // scenario's work is a minority of the rounds the median sees.
    const double block_start = NowSeconds();
    do {
      const bool recorded = rounds[next] % 2 == 0;
      tracer.set_recording(recorded);
      const double start = NowSeconds();
      scenarios[next]->Round(ctx);
      const double elapsed = NowSeconds() - start;
      tracer.set_recording(true);
      // Hand freed memory back to the kernel, so the next round runs on
      // freshly mapped pages as a new CLI process would. Without this,
      // every round reuses the pages of the first, and the placement those
      // pages happen to get shifts a whole run's timings by up to 15%.
      ::malloc_trim(0);
      busy[next] += elapsed;
      ++rounds[next];
      (recorded ? traced_s : untraced_s)[next].push_back(elapsed);
    } while (NowSeconds() - block_start < kBlockSeconds &&
             NowSeconds() < deadline);
  }

  Metrics e2e;
  Metrics layers;
  for (auto& scenario : scenarios) scenario->Report(&e2e, &layers);
  cleanup();
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  e2e["setup_s"] = Median(setup_times);
  e2e["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (args.trace) {
    // Serve rounds differ in kind (two ladder steps while the ladder
    // bisects, one after), so only the other scenarios' rounds are
    // compared.
    double traced = 0.0;
    double untraced = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (i == kServeIndex) continue;
      traced += Median(traced_s[i]);
      untraced += Median(untraced_s[i]);
    }
    layers["trace.rounds_traced_s"] = traced;
    layers["trace.rounds_untraced_s"] = untraced;
    layers["trace.overhead_frac"] = traced / untraced - 1.0;
    layers["trace.spans"] = static_cast<double>(tracer.spans().size());
  }

  bool correct = counters.failed() == 0;
  for (const auto& [name, value] : e2e) {
    if (!std::isfinite(value) || value <= 0.0) {
      std::fprintf(stderr, "perfbench_runner: metric %s is %g\n",
                   name.c_str(), value);
      correct = false;
    }
  }

  const std::string stamp =
      "{\"workload\": " + Quote(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"slice\": " + std::to_string(args.slice) +
      ", \"seconds\": " + Number(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(mochy::DefaultThreadCount()) +
      ", \"threads\": " + std::to_string(ctx.threads) +
      ", \"connections\": " + std::to_string(ctx.threads) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
      ", \"ndebug\": true, \"compiler\": " + Quote(PERFBENCH_COMPILER) +
      ", \"rev\": " + Quote(args.rev) +
      ", \"attempted\": " + std::to_string(counters.attempted()) +
      ", \"failed\": " + std::to_string(counters.failed()) +
      ", \"retried\": " + std::to_string(counters.retried()) + "}";
  if (args.trace) {
    const std::string path = ".bench_out/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + "-" +
                             std::to_string(args.slice) + ".json";
    if (!WriteSpansJson(path, stamp, tracer.spans())) {
      std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                   path.c_str());
    }
  }
  std::printf("{\"perfbench_config\": %s}\n", stamp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(counters.attempted()),
              static_cast<unsigned long long>(counters.failed()),
              MetricsJson(args.trace ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage("bad arguments");
  }
  return perfbench::Run(args);
}
