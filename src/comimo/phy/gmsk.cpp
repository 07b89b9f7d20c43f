#include "comimo/phy/gmsk.h"

#include <algorithm>
#include <cmath>

#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/numeric/special.h"

namespace comimo {

namespace {

// Most entries (2^(span+1) bit patterns × sps, 512 KiB) a modem's
// phase-step table may hold.
constexpr std::size_t kMaxPhaseSteps = std::size_t{1} << 16;

// What a pattern's margin leaves for rounding, as a fraction of |h|²
// once the caller scales it by the gain: glibc's ≤ 1-ulp sin/cos (and
// the noise's log/sqrt), the complex products, and the phase's drift
// from the pattern's own step sum.  The drift is at most sps·ulp(|φ|)
// ≤ 2⁻³⁰ below the phase limit; the rest is a few ulps.
constexpr double kMarginSlack = 1e-6;

// modulate()'s phase advance at sample r of a symbol period.  The
// frequency sums tap d·sps + r of the bits aged d_hi down to d_lo (age d
// = d symbols older; oldest first, i.e. ascending bit order, the order
// that fixes the rounding), and the phase takes 2π·h·freq with h = 1/2.
template <class BitOfAge>
double phase_step(const std::vector<double>& pulse, std::size_t sps,
                  std::size_t r, std::size_t d_lo, std::size_t d_hi,
                  BitOfAge bit_of_age) {
  double freq = 0.0;
  for (std::size_t d = d_hi + 1; d-- > d_lo;) {
    const double nrz = bit_of_age(d) ? 1.0 : -1.0;
    freq += nrz * pulse[d * sps + r];
  }
  return 2.0 * kPi * freq * 0.5;  // as in modulate()
}

}  // namespace

GmskModem::GmskModem(const GmskConfig& config) : config_(config) {
  COMIMO_CHECK(config.samples_per_symbol >= 2, "need >= 2 samples/symbol");
  COMIMO_CHECK(config.bt > 0.0 && config.bt <= 1.0, "BT in (0, 1]");
  COMIMO_CHECK(config.pulse_span_symbols >= 1, "pulse span >= 1 symbol");

  // Gaussian frequency pulse g(t), t in symbol units, truncated to
  // [-span/2, span/2]:  g(t) = [Q(a(t-1/2)) - Q(a(t+1/2))] with
  // a = 2πBT/√(ln 2); discretized at sps samples/symbol and normalized
  // so Σ g = 1/2 (modulation index h = 0.5 ⇒ π/2 phase per bit).
  const unsigned sps = config.samples_per_symbol;
  const unsigned span = config.pulse_span_symbols;
  // demodulate() decides bit 0 from samples gd + sps/2 − sps and
  // gd + sps/2, gd = span·sps/2 being the pulse's group delay; an odd
  // sps with a one-symbol span puts the first of them before sample 0.
  COMIMO_CHECK(static_cast<std::size_t>(span) * sps / 2 + sps / 2 >= sps,
               "first detector window starts before sample 0 (an odd "
               "samples_per_symbol needs pulse_span_symbols >= 2)");
  const std::size_t len = static_cast<std::size_t>(span) * sps + 1;
  pulse_.resize(len);
  const double a = 2.0 * kPi * config.bt / std::sqrt(std::log(2.0));
  const double half_span = static_cast<double>(span) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < len; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(sps) - half_span;
    const double v = q_function(a * (t - 0.5)) - q_function(a * (t + 0.5));
    pulse_[i] = v;
    sum += v;
  }
  COMIMO_CHECK(sum > 0.0, "degenerate Gaussian pulse");
  const double scale = 0.5 / sum;
  for (auto& v : pulse_) v *= scale;

  // GmskGridWalk reads a symbol period's phase steps from here when
  // all span + 1 bits of its window exist: row w holds bit d of w as the
  // bit d symbols older.  The taps end at span·sps, so the oldest bit
  // reaches only r = 0.  Pulses too long to tabulate are summed per
  // symbol instead.
  if (span < 16 && (std::size_t{2} << span) * sps <= kMaxPhaseSteps) {
    const std::size_t windows = std::size_t{2} << span;
    phase_steps_.resize(windows * sps);
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t r = 0; r < sps; ++r) {
        phase_steps_[w * sps + r] =
            phase_step(pulse_, sps, r, 0, r > 0 ? span - 1 : span,
                       [w](std::size_t d) { return (w >> d) & 1; });
      }
    }

    // Decision k's sps steps start at residue r0 of period m −
    // decision_lag_ and end in period m, that of grid sample k + 1; their
    // windows cover bits m − span − decision_lag_ … m.  A pattern holds
    // those bits as the windows do (bit d: the bit d periods older than
    // m), and its row records the sign and size of sin Δ.  Below the
    // phase limit, sps·ulp(|φ|) ≤ 2⁻³⁰.
    const std::size_t r0 = (detector_grid(0).first + 1) % sps;
    decision_lag_ = r0 > 0 ? 1 : 0;
    decisions_.resize(std::size_t{1} << (span + 1 + decision_lag_));
    for (std::size_t p = 0; p < decisions_.size(); ++p) {
      double delta = 0.0;
      for (std::size_t s = r0; s < r0 + sps; ++s) {
        const std::size_t age = decision_lag_ - s / sps;  // periods before m
        delta += phase_steps_[((p >> age) & (windows - 1)) * sps + s % sps];
      }
      const double sin_delta = std::sin(delta);
      decisions_[p] = {std::max(0.0, std::abs(sin_delta) - kMarginSlack),
                       sin_delta > 0.0 ? std::uint8_t{1} : std::uint8_t{0}};
    }
    phase_limit_ = 0x1.0p21 / static_cast<double>(sps);
  }
}

std::size_t GmskModem::samples_for_bits(std::size_t n) const noexcept {
  return (n + config_.pulse_span_symbols) * config_.samples_per_symbol;
}

GmskDetectorGrid GmskModem::detector_grid(std::size_t n) const noexcept {
  const std::size_t sps = config_.samples_per_symbol;
  const std::size_t group_delay =
      static_cast<std::size_t>(config_.pulse_span_symbols) * sps / 2;
  return {group_delay + sps / 2 - sps, sps, n + 1, samples_for_bits(n)};
}

std::vector<cplx> GmskModem::modulate(
    std::span<const std::uint8_t> bits) const {
  const unsigned sps = config_.samples_per_symbol;
  const std::size_t n_samples = samples_for_bits(bits.size());

  // Superpose the frequency pulses of all bits (NRZ ±1), then integrate.
  std::vector<double> freq(n_samples, 0.0);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    COMIMO_DCHECK(bits[k] <= 1, "bits must be 0/1");
    const double nrz = bits[k] ? 1.0 : -1.0;
    const std::size_t start = k * sps;
    for (std::size_t i = 0; i < pulse_.size(); ++i) {
      const std::size_t idx = start + i;
      if (idx >= n_samples) break;
      freq[idx] += nrz * pulse_[i];
    }
  }
  std::vector<cplx> out(n_samples);
  double phase = 0.0;
  for (std::size_t i = 0; i < n_samples; ++i) {
    // Each bit contributes a total phase of ±π (2π·h with Σg = 1/2 and
    // the conventional 2π frequency-to-phase factor)… with h = 0.5 the
    // per-bit phase advance is π·Σg·2 = π/2 when using the factor π.
    phase += 2.0 * kPi * freq[i] * 0.5;  // h = 0.5
    out[i] = cplx{std::cos(phase), std::sin(phase)};
  }
  return out;
}

BitVec GmskModem::demodulate(std::span<const cplx> samples,
                             std::size_t num_bits) const {
  const unsigned sps = config_.samples_per_symbol;
  const std::size_t group_delay =
      static_cast<std::size_t>(config_.pulse_span_symbols) * sps / 2;
  BitVec bits;
  bits.reserve(num_bits);
  for (std::size_t k = 0; k < num_bits; ++k) {
    // Differential window centered on bit k's pulse (which peaks at
    // k·sps + group_delay): the phase advance across [peak − sps/2,
    // peak + sps/2] carries sign(bit).
    const std::size_t hi = k * sps + group_delay + sps / 2;
    const std::size_t lo = hi - sps;
    if (hi >= samples.size()) {
      bits.push_back(0);  // truncated frame: pad with zeros
      continue;
    }
    const cplx d = samples[hi] * std::conj(samples[lo]);
    bits.push_back(d.imag() > 0.0 ? std::uint8_t{1} : std::uint8_t{0});
  }
  return bits;
}

void GmskModem::period_steps(std::span<const std::uint8_t> bits,
                             std::size_t m, double* steps) const {
  const std::size_t sps = config_.samples_per_symbol;
  const std::size_t span = config_.pulse_span_symbols;
  const std::size_t n = bits.size();
  // Near the frame's ends only bits m − d with d in [d_lo, d_hi] exist.
  // Sample r of symbol period m takes tap (m − k)·sps + r of bit k.
  const std::size_t d_lo = m >= n ? m - n + 1 : 0;
  for (std::size_t r = 0; r < sps; ++r) {
    const std::size_t d_hi = std::min(m, r > 0 ? span - 1 : span);
    steps[r] = phase_step(pulse_, sps, r, d_lo, d_hi,
                          [&](std::size_t d) { return bits[m - d] != 0; });
  }
}

GmskGridWalk::GmskGridWalk(const GmskModem& modem,
                           std::span<const std::uint8_t> bits)
    : modem_(&modem),
      bits_(bits),
      sps_(modem.config_.samples_per_symbol),
      span_(modem.config_.pulse_span_symbols),
      residue_(modem.detector_grid(0).first % sps_),
      first_period_(modem.detector_grid(0).first / sps_),
      count_(bits.size() + 1),
      table_(modem.phase_steps_.empty() ? nullptr
                                        : modem.phase_steps_.data()),
      window_mask_(modem.phase_steps_.size() / sps_ - 1),
      lag_(modem.decision_lag_),
      pattern_mask_(modem.decisions_.size() - 1),
      phase_limit_(modem.phase_limit_),
      edge_steps_(sps_) {}

}  // namespace comimo
