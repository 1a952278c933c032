// Shared pieces of the perfbench scenarios: run context, operation
// counters, metric maps and the scenario interface.
//
// A scenario is one of the four workloads' pipelines (exact counting,
// sampled and out-of-core counting, serving, sliding replay). Every run
// drives all four, because every run must report every end-to-end
// metric: the two scenarios a workload names run at full size with most
// of the time, the other two run at probe size (see main.cc).
#ifndef PERFBENCH_CORE_BENCH_H_
#define PERFBENCH_CORE_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "motif/counts.h"
#include "trace.h"

namespace perfbench {

/// Operations attempted, failed and retried over the whole run. A failure
/// is a non-OK Status, an error response, a typed Unavailable shed or
/// transport error that outlasts its retries, or a diverged output check.
class Counters {
 public:
  void Attempt() { ++attempted_; }
  void Retry() { ++retried_; }
  /// Records one failed operation; the first few are reported on stderr.
  void Fail(const std::string& what) {
    if (failed_++ < 8) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t retried() const { return retried_; }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> retried_{0};
};

/// What every scenario call gets.
struct Context {
  uint64_t seed = 1;
  /// Which of the run's runner processes this is (run.py runs several on
  /// the same inputs); sampler seeds and request schedules differ by it.
  uint64_t slice = 0;
  /// Worker threads for parallel calls (min(4, hardware threads)).
  size_t threads = 1;
  /// Scratch directory inside the checkout for inputs, spill logs and
  /// the socket (relative path).
  std::string dir;
  Tracer* tracer = nullptr;
  Counters* counters = nullptr;
};

using Metrics = std::map<std::string, double>;

/// One workload pipeline.
class Scenario {
 public:
  virtual ~Scenario() = default;
  /// Generates and writes the inputs, loads them, and prepares what the
  /// measurement needs. Called once, before the first round.
  virtual mochy::Status Setup(const Context& ctx) = 0;
  /// One round of the timed operations, each output checked. The runner
  /// interleaves the rounds of all scenarios over the whole run, so every
  /// metric is sampled across the same stretch of time.
  virtual void Round(const Context& ctx) = 0;
  /// Rounds every run makes, however long they take.
  virtual int MinRounds() const { return 3; }
  /// Adds the end-to-end metrics and (traced runs) the per-layer metrics.
  virtual void Report(Metrics* e2e, Metrics* layers) const = 0;
  /// Releases what Setup() started (the server, scratch files).
  virtual void Teardown() {}
};

/// `full` selects the workload-sized inputs and schedule; otherwise the
/// probe-sized ones.
std::unique_ptr<Scenario> MakeExactScenario(bool full);
std::unique_ptr<Scenario> MakeSampledScenario(bool full);
std::unique_ptr<Scenario> MakeServeScenario(bool full);
std::unique_ptr<Scenario> MakeStreamScenario(bool full);

/// Seconds on the steady clock since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True when the 26 doubles are equal bit for bit.
inline bool SameBits(const mochy::MotifCounts& a, const mochy::MotifCounts& b) {
  for (int t = 1; t <= mochy::kNumHMotifs; ++t) {
    const double x = a[t];
    const double y = b[t];
    if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_CORE_BENCH_H_
