// Order statistics for the benchmark's reports.
//
// A percentile is reported only when the sample supports it: at least
// ten samples must lie beyond it (so p99 needs n >= 1000, p90 n >= 100,
// p50 n >= 20).  Every reported figure carries its sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile for it to be reported.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples strictly after the rank taken
  bool supported = false;  ///< beyond >= kMinBeyond
};

/// Nearest-rank percentile, q in (0, 1].  The rank is ceil(q * n), so the
/// samples beyond it are n - ceil(q * n).  +inf samples (misses) sort last.
[[nodiscard]] inline Percentile percentile(std::vector<double> samples,
                                           double q) {
  Percentile p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  const double exact = q * static_cast<double>(p.n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, p.n);
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

/// Median of any non-empty sample (the middle value, or the mean of the
/// two middle values); used for repeated fixed-work phases, where the
/// count is small and printed beside the value.
[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
