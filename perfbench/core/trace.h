// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its calls into the library
// (never inside src/), kept in memory, and written out once at the end.
// A disabled Tracer records nothing: Begin() returns immediately, so the
// untraced run pays one branch per span site.
#ifndef PERFBENCH_CORE_TRACE_H_
#define PERFBENCH_CORE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval. Times are seconds since the tracer was made.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Index of the enclosing span in the same recording, -1 for a root.
  int64_t parent = -1;
  /// Operation or request id; every span of one request shares it.
  uint64_t op_id = 0;
};

/// Thread-safe span recorder. The parent of a new span is the innermost
/// span the calling thread has open on this tracer.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Pauses or resumes recording on an enabled tracer, so a traced run
  /// can time some rounds without spans and report the overhead.
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return enabled_ && recording_; }
  /// Seconds since construction.
  double Now() const;
  /// Opens a span and returns its id (-1 when disabled). `op_id` 0
  /// inherits the parent's id.
  int64_t Begin(const std::string& name, uint64_t op_id = 0);
  /// Closes a span opened by this thread (innermost first).
  void End(int64_t id);
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  std::atomic<bool> recording_{true};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, uint64_t op_id = 0)
      : tracer_(tracer), id_(tracer.Begin(name, op_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const int64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Index-aligned with
/// `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Per span name: {summed self time in seconds, number of spans}.
std::map<std::string, std::pair<double, size_t>> SelfTimeByName(
    const std::vector<Span>& spans);

/// Writes `spans` and their self times as JSON to `path`, with
/// `header_json` (an object) stored under "run". Returns false on I/O
/// failure.
bool WriteSpansJson(const std::string& path, const std::string& header_json,
                    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_TRACE_H_
