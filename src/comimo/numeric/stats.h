// Streaming summary statistics for Monte-Carlo experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace comimo {

/// Welford-style running mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Merges another accumulator (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for n < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean.
  [[nodiscard]] double std_error() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Half-width of the ~95% normal-approximation confidence interval.
  [[nodiscard]] double ci95_half_width() const noexcept;

  /// Exact state equality — the MC engine's thread-count-invariance
  /// tests assert accumulators are bit-identical, not merely close.
  friend bool operator==(const RunningStats&, const RunningStats&) = default;

  /// Raw internal state, for estimators that need the Welford sums
  /// themselves (e.g. the importance-sampling weight ESS in
  /// phy/ber_sweep.cpp recovers Σw and Σw² from n, mean and m2).
  struct Raw {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Raw raw() const noexcept {
    return {n_, mean_, m2_, min_, max_};
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile (0..100) of a copy of the data, linear interpolation.
[[nodiscard]] double percentile(std::vector<double> data, double pct);

/// Bernoulli success-rate estimate with Wilson 95% interval, for BER/PER
/// reporting.
struct RateEstimate {
  double rate = 0.0;
  double wilson_lo = 0.0;
  double wilson_hi = 0.0;
};
[[nodiscard]] RateEstimate estimate_rate(std::uint64_t successes,
                                         std::uint64_t trials);

}  // namespace comimo
