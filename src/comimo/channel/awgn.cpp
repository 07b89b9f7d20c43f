#include "comimo/channel/awgn.h"

#include <cmath>
#include <limits>
#include <numbers>

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

AwgnChannel::AwgnChannel(double noise_variance, Rng rng)
    : noise_variance_(noise_variance),
      scale_(std::sqrt(noise_variance / 2.0)),
      // Within this range N0/2 is exact and every product of the
      // sample stays a normal number, so all its rounding is relative.
      bounds_hold_(noise_variance == 0.0 ||
                   (noise_variance >= 0x1.0p-1000 &&
                    noise_variance <= 0x1.0p1000)),
      rng_(rng) {
  COMIMO_CHECK(noise_variance >= 0.0, "negative noise variance");
}

void AwgnChannel::apply(std::span<cplx> samples) {
  if (noise_variance_ == 0.0) return;
  for (auto& s : samples) s += rng_.complex_gaussian(noise_variance_);
}

std::vector<cplx> AwgnChannel::add(std::span<const cplx> samples) {
  std::vector<cplx> out(samples.begin(), samples.end());
  apply(out);
  return out;
}

cplx AwgnChannel::sample() { return rng_.complex_gaussian(noise_variance_); }

void AwgnChannel::skip_past_spare(std::size_t n) {
  // Without a spare, sample() draws one fresh pair and leaves no spare
  // behind, so skip() only discards words.  With a spare pending, every
  // sample still takes two words but replaces the spare; the last
  // skipped sample's spare is the one the next sample() reads, so that
  // sample is drawn for real.
  rng_.discard(2 * static_cast<std::uint64_t>(n - 1));
  (void)sample();
}

std::int64_t AwgnChannel::small_noise_word(double t2) const noexcept {
  if (!bounds_hold_ || !(t2 > 0.0)) return -1;
  // |n|² = N0·(−ln u1) ≤ t2 exactly when u1 ≥ e^(−t2/N0), that is when
  // (w1 >> 11) ≤ 2⁵³ − ⌈2⁵³·e^(−t2/N0)⌉.  Shrinking t2 by 1e-9 covers
  // the rounding of Box–Muller's log, square roots and products; growing
  // the exponential by 2⁻⁵⁰ covers exp's own (≤ 1 ulp).  The complement
  // is taken because 1 − e^(−x) loses every digit that matters when x
  // is large.
  const double tail = std::exp(-(t2 * (1.0 - 1e-9)) / noise_variance_) *
                      0x1.0p53 * (1.0 + 0x1.0p-50);
  return (std::int64_t{1} << 53) - static_cast<std::int64_t>(std::ceil(tail));
}

double AwgnChannel::noise_bound(std::uint64_t w1) const noexcept {
  if (!bounds_hold_) return std::numeric_limits<double>::infinity();
  // u1 = m·2^e with m in [1/2, 1).  For y = 1/m in (1, 2],
  // ln y ≤ (y − 1/y)/2, so −ln u1 = −e·ln 2 + ln y ≤ −e·ln 2 +
  // (1/m − m)/2: tight as u1 nears 1 from below, 0.057 over at worst.
  // The 2⁻⁵⁰ and the 1 + 2⁻⁴⁰ cover this sum's rounding and
  // Box–Muller's.
  int e = 0;
  const double m =
      std::frexp(1.0 - static_cast<double>(w1 >> 11) * 0x1.0p-53, &e);
  const double q = -e * std::numbers::ln2 + (1.0 / m - m) * 0.5;
  return std::sqrt(noise_variance_ * (q + 0x1.0p-50) * (1.0 + 0x1.0p-40));
}

double noise_variance_for_ebn0_db(double ebn0_db, double es,
                                  double bits_per_symbol) {
  COMIMO_CHECK(es > 0.0 && bits_per_symbol > 0.0,
               "energy and rate must be positive");
  const double ebn0 = db_to_linear(ebn0_db);
  const double eb = es / bits_per_symbol;
  return eb / ebn0;  // N0
}

}  // namespace comimo
