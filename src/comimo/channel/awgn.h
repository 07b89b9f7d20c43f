// Additive white Gaussian noise.
#pragma once

#include <span>
#include <vector>

#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"

namespace comimo {

/// Complex AWGN source with per-sample variance N0 (so each of I/Q gets
/// N0/2).  SNR bookkeeping is the caller's job; helpers below convert
/// Eb/N0 to a noise variance for unit-energy symbols.
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
  void skip(std::size_t n);

  [[nodiscard]] double noise_variance() const noexcept {
    return noise_variance_;
  }

 private:
  double noise_variance_;
  Rng rng_;
};

/// Noise variance for a target Eb/N0 (dB) given symbol energy Es and
/// bits/symbol b (unit-energy symbols: es = 1).
[[nodiscard]] double noise_variance_for_ebn0_db(double ebn0_db,
                                                double es = 1.0,
                                                double bits_per_symbol = 1.0);

}  // namespace comimo
