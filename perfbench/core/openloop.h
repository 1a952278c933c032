// Seeded open-loop request generator.
//
// Requests arrive on a Poisson schedule fixed in advance from a seed, and
// are sent at their due time whether or not earlier requests have been
// answered; a bounded number of connections carries them. When every
// connection is busy at a request's due time it waits in the backlog,
// and its latency still counts from the due time, so a stall in the
// system shows in every request it delays.
#ifndef PERFBENCH_CORE_OPENLOOP_H_
#define PERFBENCH_CORE_OPENLOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// One scheduled request: when it is due (seconds after the run starts)
/// and which key it asks for.
struct Arrival {
  double due_s = 0.0;
  uint32_t key = 0;
};

/// Key weights with the 1%-hot skew: exactly max(1, round(hot_fraction *
/// num_keys)) keys, picked by a seeded shuffle among the first
/// `candidates` keys, are hot and together draw `hot_share` of the
/// traffic; all other keys share the rest evenly.
std::vector<double> HotSkewWeights(uint64_t seed, size_t num_keys,
                                   size_t candidates, double hot_fraction,
                                   double hot_share);

/// Poisson arrivals at `rate_per_s` over [0, duration_s), each key drawn
/// with probability proportional to `weights`. Deterministic in `seed`.
std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double duration_s,
                                  const std::vector<double>& weights);

/// What one request returned.
struct Outcome {
  bool ok = false;         ///< answered correctly (checks passed)
  bool cached = false;     ///< the server answered from its cache
  size_t bytes = 0;        ///< response payload bytes
};

/// One executed request; times are seconds after the run started.
struct RequestRecord {
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  Outcome outcome;
  /// Latency as the user sees it: from the due time to the answer.
  double latency_s() const { return done_s - due_s; }
  /// How late the generator sent the request.
  double lateness_s() const { return send_s - due_s; }
};

/// Sends `schedule` open loop over `connections` threads (at least 1).
/// `send(connection, key)` performs one request on that connection and
/// blocks until it is answered. Records are index-aligned with
/// `schedule`.
std::vector<RequestRecord> RunOpenLoop(
    const std::vector<Arrival>& schedule, size_t connections,
    const std::function<Outcome(size_t connection, uint32_t key)>& send);

/// The largest number of requests that were due but still waiting for a
/// connection, taken at every send instant (the one being sent excluded).
size_t MaxBacklog(const std::vector<RequestRecord>& records);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_OPENLOOP_H_
