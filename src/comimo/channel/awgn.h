// Additive white Gaussian noise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"

namespace comimo {

/// The two raw words of one noise sample, drawn but not yet evaluated
/// (see box_muller()).
struct NoiseWords {
  std::uint64_t w1 = 0;
  std::uint64_t w2 = 0;
};

/// Complex AWGN source with per-sample variance N0 (so each of I/Q gets
/// N0/2).  SNR bookkeeping is the caller's job; helpers below convert
/// Eb/N0 to a noise variance for unit-energy symbols.
///
/// A sample drawn with no Gaussian spare pending is one Box–Muller pair
/// from two fresh words, so |n|² = N0·(−ln u1) with u1 = 1 −
/// (w1 >> 11)·2⁻⁵³: its first word alone bounds its magnitude.  The two
/// bounds below use that without calling log or sincos.  Each is sound
/// for the computed sample, rounding included, for N0 = 0 and for N0 in
/// [2⁻¹⁰⁰⁰, 2¹⁰⁰⁰]; for other variances they promise nothing.
class AwgnChannel {
 public:
  AwgnChannel(double noise_variance, Rng rng);

  /// Adds noise in place.
  void apply(std::span<cplx> samples);
  /// Returns a noisy copy.
  [[nodiscard]] std::vector<cplx> add(std::span<const cplx> samples);
  /// One noise sample.
  [[nodiscard]] cplx sample();
  /// Advances the noise stream past `n` samples without computing them:
  /// afterwards sample() returns what the (n+1)-th sample() call would
  /// have.  Each sample is one Box–Muller pair, two words of the stream.
  void skip(std::size_t n) {
    if (n > 0 && rng_.gaussian_spare_pending()) {
      skip_past_spare(n);
      return;
    }
    rng_.discard(2 * static_cast<std::uint64_t>(n));
  }

  /// True when the next sample() starts from a cached Box–Muller spare:
  /// its value then depends on the previous sample's words.
  [[nodiscard]] bool spare_pending() const noexcept {
    return rng_.gaussian_spare_pending();
  }
  /// Draws the next sample's two words without evaluating them:
  /// sample_from() of them is what sample() would have returned.  No
  /// spare may be pending.
  [[nodiscard]] NoiseWords draw_words() noexcept {
    const std::uint64_t w1 = rng_.next();
    return {w1, rng_.next()};
  }
  /// The sample of `words`, with sample()'s arithmetic bit for bit.
  [[nodiscard]] cplx sample_from(const NoiseWords& words) const noexcept {
    const GaussianPair z = box_muller(words.w1, words.w2);
    return {z.first * scale_, z.second * scale_};
  }

  /// First bound: every sample whose first word has (w1 >> 11) ≤ the
  /// returned value has |sample_from()|² < t2.  One integer compare per
  /// sample, once the caller has this value.  −1 when no word qualifies.
  [[nodiscard]] std::int64_t small_noise_word(double t2) const noexcept;
  /// Second bound: |sample_from()| of any sample whose first word is
  /// `w1` lies below the returned value (+∞ where the bounds do not
  /// hold).  One frexp, one divide and one square root.
  [[nodiscard]] double noise_bound(std::uint64_t w1) const noexcept;

  [[nodiscard]] double noise_variance() const noexcept {
    return noise_variance_;
  }

 private:
  void skip_past_spare(std::size_t n);

  double noise_variance_;
  double scale_;  // √(N0/2): each quadrature's standard deviation
  bool bounds_hold_;
  Rng rng_;
};

/// Noise variance for a target Eb/N0 (dB) given symbol energy Es and
/// bits/symbol b (unit-energy symbols: es = 1).
[[nodiscard]] double noise_variance_for_ebn0_db(double ebn0_db,
                                                double es = 1.0,
                                                double bits_per_symbol = 1.0);

}  // namespace comimo
