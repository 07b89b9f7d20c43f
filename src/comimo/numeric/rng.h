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

/// The batch link and hop kernels evaluate box_muller without libm
/// (add_noise_approx, numeric/simd/batch_kernels_impl.h) and keep a
/// decision only where a certificate shows that the exact value could
/// not flip it.  The approximation, from the same two words:
///   * u1 as above, exactly; u1 = m·2^E with m in [√½, √2);
///     ln u1 = E·ln 2 + 2·atanh(s), s = (m − 1)/(m + 1), |s| ≤ 3 − 2√2,
///     atanh by its Taylor series through s¹¹;
///   * θ = (π/4)·(k + f) with k = w2 >> 61 and f the next 50 bits of
///     w2 >> 11; x = (π/4)·f, or (π/4)·(1 − f) in odd octants, so x is
///     in [0, π/4]; sin x through x¹¹, cos x through x¹², then the
///     octant's swap and signs;
///   * r̃ = √(−2 ln u1), and the sample r̃·(cos, sin) scaled like the
///     exact one.
/// Its distance from the exact complex sample n (what
/// Rng::complex_gaussian or AwgnChannel::sample_from return, scaled
/// by σ and a gain g) is at most e = kBoxMullerApproxRelErr·r̃·σ·g +
/// 2⁻¹⁰⁰⁰:
///   * ln: the series' tail over its sum is at most z⁶/(13·(1 − z)) =
///     5.16e-11 at z = s² ≤ 0.0294.  |ln m| ≤ |ln u1| whatever E is, so
///     ln u1 and r̃² have that relative error too, and r̃ half of it:
///     2.58e-11 of r;
///   * trig: the alternating tails are at most x¹³/13! = 6.95e-12 for
///     sin and x¹⁴/14! = 3.9e-13 for cos at x = π/4, so the unit vector
///     (cos θ, sin θ) moves by at most 6.96e-12;
///   * rounding: the approximation's own (the exact u1, the split, s,
///     the two Horner sums, the sqrt and the products, about 40 roundings
///     of 2⁻⁵³ each) and the exact chain's (log, sqrt, θ = 2·kPi·u2
///     within 7e-16 of 2π·u2, cos and sin within 1 ulp) stay below
///     1e-14 of r.  2⁻⁴⁰ covers them with room;
///   * |ñ − n| ≤ |r̃ − r| + r·|Δ(cos, sin)| ≤ r·(2.58e-11 + 6.96e-12 +
///     2⁻⁴⁰), and r ≤ r̃·(1 + 3e-11): hence 3.37e-11.  The 2⁻¹⁰⁰⁰ floor
///     covers products that underflow, whose rounding is absolute.
/// Half of e is below the ln term alone, so halving e fails the bound
/// test near m = √½ or √2 (tests/test_noise_cert.cpp).
inline constexpr double kBoxMullerApproxRelErr = 3.37e-11;

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
