// Order statistics used by every perfbench metric.
#ifndef PERFBENCH_CORE_STATS_H_
#define PERFBENCH_CORE_STATS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in [0, 100]; p = 0 gives the
/// minimum). NaN for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double clamped = std::clamp(p, 0.0, 100.0);
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

/// Median: the middle sample, or the mean of the two middle samples for
/// an even count (Python's statistics.median). NaN for an empty sample.
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

/// Arithmetic mean; NaN for an empty sample.
inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_CORE_STATS_H_
