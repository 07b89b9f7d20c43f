// Mergeable per-chunk accumulator for Monte-Carlo sweeps.
//
// Each chunk of a sweep (mc/engine.h) owns one McAccumulator; trials
// add named counters (error/trial counts) and named observations
// (Welford mean/variance with min/max).  Chunks merge in ascending
// chunk ordinal, so the reduced state is a pure function of (seed,
// trials, chunk size) — never of the worker or slice count that
// happened to execute the chunks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "comimo/numeric/stats.h"

namespace comimo {

class McAccumulator {
 public:
  /// Adds `n` to the named counter (creating it at zero).
  void count(const std::string& name, std::uint64_t n = 1);

  /// Adds one observation to the named streaming statistic.
  void observe(const std::string& name, double x);

  /// Counter value; 0 when the counter was never touched.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// Streaming statistic; an empty RunningStats when never observed.
  [[nodiscard]] const RunningStats& stat(const std::string& name) const;

  /// counter(numerator) / counter(denominator) with Wilson 95% interval;
  /// the BER/PER reporting shape.  Returns a zero estimate when the
  /// denominator is zero.
  [[nodiscard]] RateEstimate rate(const std::string& numerator,
                                  const std::string& denominator) const;

  /// Folds `other` into this accumulator.  Counters add; statistics
  /// merge via the pairwise Welford update.  The engine always merges in
  /// ascending chunk order so results are reproducible bit-for-bit.
  void merge(const McAccumulator& other);

  [[nodiscard]] std::vector<std::string> counter_names() const;
  [[nodiscard]] std::vector<std::string> stat_names() const;

  /// Exact (bitwise on doubles) state equality, for the thread-count
  /// invariance tests.
  friend bool operator==(const McAccumulator&, const McAccumulator&) = default;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, RunningStats> stats_;
};

}  // namespace comimo
