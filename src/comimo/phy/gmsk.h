// GMSK modem.
//
// The paper's underlay testbed (§6.4) transmits image packets with
// Gaussian-filtered MSK at 250 kbps.  This modem follows the classical
// construction: NRZ bits → Gaussian frequency pulse (BT configurable,
// 0.3 by default, matching GNU Radio's gmsk_mod) → phase integrator with
// modulation index h = 0.5 → complex baseband exp(jφ).  Demodulation is
// the noncoherent one-symbol differential detector (quadrature demod),
// which is what the GNU Radio receive chain effectively implements and
// which tolerates the unknown carrier phase of a real USRP link.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "comimo/numeric/cmatrix.h"
#include "comimo/phy/modulation.h"

namespace comimo {

/// The samples the differential detector reads from modulate()'s output
/// for an n-bit frame: `count` = n + 1 indices, the first at `first` and
/// then every `stride` (= samples per symbol), out of `total` samples.
/// Bit k is decided from grid samples k and k + 1.
struct GmskDetectorGrid {
  std::size_t first = 0;
  std::size_t stride = 0;
  std::size_t count = 0;
  std::size_t total = 0;

  /// Full-waveform index of the last grid sample.
  [[nodiscard]] std::size_t last() const noexcept {
    return first + (count - 1) * stride;
  }
};

/// The noise-free decision of the detector windows that see one bit
/// pattern.  Decision k compares grid samples k and k + 1, whose phases
/// differ by the sum Δ of the sps phase steps between them.  Those steps
/// depend only on the bits whose pulses cover them: bits k − 2 … k + 2
/// at the default config.
struct GmskPatternDecision {
  /// Lower bound on |Im(x[k+1]·conj(x[k]))| for modulate()'s samples x
  /// of every such window: |sin Δ| less a slack of 1e-6 for rounding,
  /// and 0 when that is not positive (no bound at all).
  double margin = 0.0;
  /// The detector's decision without noise: 1 when sin Δ > 0.
  std::uint8_t bit = 0;
};

struct GmskConfig {
  /// Samples per symbol.
  unsigned samples_per_symbol = 4;
  /// Bandwidth-time product of the Gaussian pulse.
  double bt = 0.3;
  /// Pulse span in symbols (the FIR truncation).
  unsigned pulse_span_symbols = 4;
};

class GmskModem {
 public:
  explicit GmskModem(const GmskConfig& config = {});

  /// Modulates bits to unit-envelope baseband samples.  The output is
  /// padded by the pulse span so the final bit's phase ramp completes.
  [[nodiscard]] std::vector<cplx> modulate(
      std::span<const std::uint8_t> bits) const;

  /// Differential detection; `num_bits` tells the demodulator how many
  /// decisions to make (the frame length is known to the receiver from
  /// the header, as in the testbed).
  [[nodiscard]] BitVec demodulate(std::span<const cplx> samples,
                                  std::size_t num_bits) const;

  /// Number of samples modulate() produces for n bits.
  [[nodiscard]] std::size_t samples_for_bits(std::size_t n) const noexcept;

  /// Where demodulate() reads modulate()'s output for an n-bit frame.
  [[nodiscard]] GmskDetectorGrid detector_grid(std::size_t n) const noexcept;

  /// The noise-free decision of every bit pattern a detector window can
  /// see, indexed by GmskGridWalk::pattern().  Empty when the pulse is
  /// too long to tabulate.
  [[nodiscard]] const std::vector<GmskPatternDecision>& pattern_decisions()
      const noexcept {
    return decisions_;
  }

  [[nodiscard]] const GmskConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<double>& frequency_pulse() const noexcept {
    return pulse_;
  }

 private:
  friend class GmskGridWalk;

  // modulate()'s phase steps of symbol period m, summed from the pulse
  // taps of the bits that exist: what a frame's edge periods, and every
  // period of a pulse too long to tabulate, take.
  void period_steps(std::span<const std::uint8_t> bits, std::size_t m,
                    double* steps) const;

  GmskConfig config_;
  std::vector<double> pulse_;  // integrates to 1/2 (h = 0.5 phase per bit)
  // modulate()'s phase step of each sample of a symbol period, per
  // pattern of the span + 1 bits whose pulses cover it; empty when the
  // pulse is too long to tabulate.
  std::vector<double> phase_steps_;
  // Per pattern of the bits a decision's phase steps depend on.
  std::vector<GmskPatternDecision> decisions_;
  // Symbol periods a decision's steps start before the period of its
  // second grid sample: 0 or 1.
  std::size_t decision_lag_ = 0;
  // |phase| below which the margins' slack covers the phase's rounding.
  double phase_limit_ = 0.0;
};

/// Walks modulate(bits)'s detector grid in order without evaluating the
/// waveform.  After the j-th successful next() (j = 0 … n) it sits at
/// grid sample j:
/// - phase() is the phase modulate() has accumulated there, summed over
///   every sample in modulate()'s order, so its cos and sin equal
///   modulate(bits)[grid.first + j·grid.stride] bit for bit;
/// - for j ≥ 1, pattern() is decision j − 1's row in
///   GmskModem::pattern_decisions().  It is kNoPattern where a step of
///   the decision lies in one of the frame's edge symbol periods, where
///   the modem has no table, or where the phase has grown beyond what
///   the margins' slack allows for.
/// modulate() rounds in two fixed orders: each sample's frequency sums
/// the bits' pulse taps in ascending bit order, and the phase sums the
/// steps sample by sample.  The modem's table and its per-period sums
/// keep the first, next() the second.  Inline, so that a caller's own
/// per-sample work can overlap the phase's chain of dependent adds.
class GmskGridWalk {
 public:
  static constexpr std::uint32_t kNoPattern = ~std::uint32_t{0};

  GmskGridWalk(const GmskModem& modem, std::span<const std::uint8_t> bits);

  /// Moves to the next grid sample; false once all n + 1 are done.
  bool next() {
    if (j_ == count_) return false;
    const double before = phase_;
    if (j_ > 0) add_steps(residue_ + 1, sps_);
    while (m_ < first_period_ + j_) {  // only before the first sample
      enter_period();
      add_steps(0, sps_);
    }
    enter_period();
    add_steps(0, residue_ + 1);
    if (j_ > 0) {
      // Decision j − 1 ends in period m_ − 1, which was just entered.
      const std::size_t m = m_ - 1;
      const bool tabulated = table_ != nullptr && m >= span_ + lag_ &&
                             m < bits_.size() &&
                             std::abs(before) < phase_limit_ &&
                             std::abs(phase_) < phase_limit_;
      pattern_ = tabulated ? static_cast<std::uint32_t>(history_ &
                                                        pattern_mask_)
                           : kNoPattern;
    }
    ++j_;
    return true;
  }

  [[nodiscard]] double phase() const noexcept { return phase_; }
  [[nodiscard]] std::uint32_t pattern() const noexcept { return pattern_; }

 private:
  // Steps into period m_: its bit joins the history, and its phase steps
  // come from the modem's table when all of its window's bits exist.
  void enter_period() {
    history_ = (history_ << 1) | (m_ < bits_.size() && bits_[m_] ? 1 : 0);
    if (table_ != nullptr && m_ >= span_ && m_ < bits_.size()) {
      steps_ = table_ + (history_ & window_mask_) * sps_;
    } else {
      modem_->period_steps(bits_, m_, edge_steps_.data());
      steps_ = edge_steps_.data();
    }
    ++m_;
  }
  void add_steps(std::size_t from, std::size_t to) {
    for (std::size_t r = from; r < to; ++r) phase_ += steps_[r];
  }

  const GmskModem* modem_;
  std::span<const std::uint8_t> bits_;
  std::size_t sps_;
  std::size_t span_;
  std::size_t residue_;       // a grid sample's residue within its period
  std::size_t first_period_;  // the period of grid sample 0
  std::size_t count_;         // n + 1 grid samples
  const double* table_;       // the modem's phase steps, or nullptr
  std::size_t window_mask_;   // a table row's span + 1 bits
  std::size_t lag_;
  std::size_t pattern_mask_;
  double phase_limit_;
  std::vector<double> edge_steps_;
  std::size_t j_ = 0;
  std::size_t m_ = 0;        // the next period to enter
  std::size_t history_ = 0;  // bit d: bit m_ − 1 − d of the frame
  const double* steps_ = nullptr;
  double phase_ = 0.0;
  std::uint32_t pattern_ = kNoPattern;
};

}  // namespace comimo
