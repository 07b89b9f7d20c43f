// Deterministic, splittable random number generation.
//
// The Monte-Carlo sweeps fan out across threads; to keep results identical
// regardless of scheduling, every task derives its own Xoshiro256++ stream
// from a (seed, stream-id) pair via SplitMix64 — counter-based seeding in
// the style recommended for reproducible HPC simulations.
#pragma once

#include <array>
#include <complex>
#include <cstdint>

#include "comimo/common/geometry.h"

namespace comimo {

/// SplitMix64: used only to expand seeds into Xoshiro state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Xoshiro256++ generator with Gaussian / complex-Gaussian / Gamma
/// sampling on top.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Stream `stream` of the generator family identified by `seed`:
  /// distinct (seed, stream) pairs give statistically independent streams.
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() noexcept { return next(); }

  [[nodiscard]] std::uint64_t next() noexcept;

  /// Advances the stream by `n` words, exactly as `n` calls of next()
  /// would.  A pending Gaussian spare is left as it is.
  void discard(std::uint64_t n) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n); n must be positive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;
  /// Fair coin / Bernoulli(p).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Standard normal via Box–Muller (cached spare).
  [[nodiscard]] double gaussian() noexcept;
  /// N(mean, stddev²).
  [[nodiscard]] double gaussian(double mean, double stddev) noexcept;
  /// True when the next gaussian() returns the cached Box–Muller spare
  /// and draws no word.
  [[nodiscard]] bool gaussian_spare_pending() const noexcept {
    return has_spare_;
  }

  /// Circularly-symmetric complex Gaussian CN(0, variance), i.e. each of
  /// the real and imaginary parts has variance `variance/2`.
  [[nodiscard]] std::complex<double> complex_gaussian(
      double variance = 1.0) noexcept;

  /// Gamma(shape, scale=1) via Marsaglia–Tsang; shape > 0.
  [[nodiscard]] double gamma(double shape) noexcept;

  /// Exponential with unit mean.
  [[nodiscard]] double exponential() noexcept;

  /// Uniform point inside the disk of radius `radius` centered at `center`.
  [[nodiscard]] Vec2 point_in_disk(const Vec2& center, double radius) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace comimo
