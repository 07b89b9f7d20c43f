#include "comimo/channel/awgn.h"

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

AwgnChannel::AwgnChannel(double noise_variance, Rng rng)
    : noise_variance_(noise_variance), rng_(rng) {
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

void AwgnChannel::skip(std::size_t n) {
  if (n == 0) return;
  if (!rng_.gaussian_spare_pending()) {
    // sample() then draws one fresh pair and leaves no spare behind.
    rng_.discard(2 * static_cast<std::uint64_t>(n));
    return;
  }
  // With a spare pending, every sample still takes two words but
  // replaces the spare; the last skipped sample's spare is the one the
  // next sample() reads, so that sample is drawn for real.
  rng_.discard(2 * static_cast<std::uint64_t>(n - 1));
  (void)sample();
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
