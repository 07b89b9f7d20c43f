// Deterministic, splittable random number generation.
//
// The Monte-Carlo sweeps fan out across threads; to keep results identical
// regardless of scheduling, every task derives its own Xoshiro256++ stream
// from a (seed, stream-id) pair via SplitMix64 — counter-based seeding in
// the style recommended for reproducible HPC simulations.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>

#include "comimo/common/geometry.h"
#include "comimo/common/units.h"

namespace comimo {

/// SplitMix64: used only to expand seeds into Xoshiro state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// A standard-normal pair.
struct GaussianPair {
  double first = 0.0;
  double second = 0.0;
};

/// Box–Muller on two raw words of a stream: u1 = 1 − (w1 >> 11)·2⁻⁵³,
/// in (0, 1] so that log never sees 0, and u2 = (w2 >> 11)·2⁻⁵³ give
/// r·(cos θ, sin θ) with r = √(−2 ln u1) and θ = 2π·u2.  This is the
/// library's only Box–Muller: Rng::gaussian() draws w1, then w2, returns
/// `first` and keeps `second` as its spare, and AwgnChannel evaluates a
/// sample from its two words with it.  Inline, so that the draws of the
/// batch link kernels pay no extra call.
[[nodiscard]] inline GaussianPair box_muller(std::uint64_t w1,
                                             std::uint64_t w2) noexcept {
  const double u1 = 1.0 - static_cast<double>(w1 >> 11) * 0x1.0p-53;
  const double u2 = static_cast<double>(w2 >> 11) * 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  return {r * std::cos(theta), r * std::sin(theta)};
}

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

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Advances the stream by `n` words, exactly as `n` calls of next()
  /// would.  A pending Gaussian spare is left as it is.
  void discard(std::uint64_t n) noexcept {
    for (; n > 0; --n) (void)next();
  }

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
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace comimo
