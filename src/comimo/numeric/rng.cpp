#include "comimo/numeric/rng.h"

#include <cmath>

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream id into the seed expansion so streams decorrelate.
  std::uint64_t sm = seed ^ (0x6a09e667f3bcc909ULL + stream * 0x9e3779b97f4a7c15ULL);
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the all-zero state (probability ~2^-256, but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation.
  COMIMO_DCHECK(n > 0, "uniform_int needs n > 0");
  const __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;
    while (lo < threshold) {
      const __uint128_t m2 = static_cast<__uint128_t>(next()) * n;
      lo = static_cast<std::uint64_t>(m2);
      if (lo >= threshold) return static_cast<std::uint64_t>(m2 >> 64);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  const std::uint64_t w1 = next();
  const std::uint64_t w2 = next();
  const GaussianPair z = box_muller(w1, w2);
  spare_ = z.second;
  has_spare_ = true;
  return z.first;
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

std::complex<double> Rng::complex_gaussian(double variance) noexcept {
  const double s = std::sqrt(variance / 2.0);
  return {gaussian() * s, gaussian() * s};
}

double Rng::gamma(double shape) noexcept {
  COMIMO_DCHECK(shape > 0.0, "gamma needs shape > 0");
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang remark).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u > 0 ? u : 1e-300, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = gaussian();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::exponential() noexcept {
  const double u = 1.0 - uniform();
  return -std::log(u);
}

Vec2 Rng::point_in_disk(const Vec2& center, double radius) noexcept {
  // Inverse-CDF radius keeps the distribution uniform over area.
  const double r = radius * std::sqrt(uniform());
  const double theta = uniform(0.0, 2.0 * kPi);
  return center + unit_vec(theta) * r;
}

}  // namespace comimo
