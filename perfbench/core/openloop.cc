#include "openloop.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/alias_table.h"
#include "common/rng.h"

namespace perfbench {

std::vector<double> HotSkewWeights(uint64_t seed, size_t num_keys,
                                   size_t candidates, double hot_fraction,
                                   double hot_share) {
  candidates = std::min(candidates, num_keys);
  if (candidates == 0) return std::vector<double>(num_keys, 1.0);
  size_t hot = static_cast<size_t>(
      std::lround(hot_fraction * static_cast<double>(num_keys)));
  hot = std::clamp<size_t>(hot, 1, candidates);
  const size_t cold = num_keys - hot;
  std::vector<double> weights(
      num_keys, cold == 0 ? 0.0 : (1.0 - hot_share) / static_cast<double>(cold));
  std::vector<size_t> order(candidates);
  std::iota(order.begin(), order.end(), 0);
  mochy::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i = 0; i < hot; ++i) {
    weights[order[i]] = hot_share / static_cast<double>(hot);
  }
  return weights;
}

std::vector<Arrival> MakeSchedule(uint64_t seed, double rate_per_s,
                                  double duration_s,
                                  const std::vector<double>& weights) {
  std::vector<Arrival> schedule;
  auto table = mochy::AliasTable::Build(weights);
  if (!table.ok() || rate_per_s <= 0.0) return schedule;
  mochy::Rng rng(seed);
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - U is in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s;
    if (t >= duration_s) break;
    schedule.push_back(
        Arrival{t, static_cast<uint32_t>(table.value().Sample(rng))});
  }
  return schedule;
}

std::vector<RequestRecord> RunOpenLoop(
    const std::vector<Arrival>& schedule, size_t connections,
    const std::function<Outcome(size_t connection, uint32_t key)>& send) {
  using Clock = std::chrono::steady_clock;
  std::vector<RequestRecord> records(schedule.size());
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto worker = [&](size_t connection) {
    // Wake within microseconds of a due time instead of the default
    // 50 us timer slack, which would read as generator lateness.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      const Arrival& arrival = schedule[i];
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(arrival.due_s)));
      RequestRecord& record = records[i];
      record.due_s = arrival.due_s;
      record.send_s = since_start();
      record.outcome = send(connection, arrival.key);
      record.done_s = since_start();
    }
  };
  std::vector<std::thread> threads;
  const size_t n = std::max<size_t>(1, connections);
  threads.reserve(n);
  for (size_t c = 0; c < n; ++c) threads.emplace_back(worker, c);
  for (std::thread& t : threads) t.join();
  return records;
}

size_t MaxBacklog(const std::vector<RequestRecord>& records) {
  std::vector<double> dues;
  std::vector<double> sends;
  dues.reserve(records.size());
  sends.reserve(records.size());
  for (const RequestRecord& r : records) {
    dues.push_back(r.due_s);
    sends.push_back(r.send_s);
  }
  std::sort(dues.begin(), dues.end());
  std::sort(sends.begin(), sends.end());
  size_t best = 0;
  for (size_t i = 0; i < sends.size(); ++i) {
    // Due by this send instant, minus this one and those sent before it.
    const size_t due = static_cast<size_t>(
        std::upper_bound(dues.begin(), dues.end(), sends[i]) - dues.begin());
    best = std::max(best, due > i + 1 ? due - i - 1 : 0);
  }
  return best;
}

}  // namespace perfbench
