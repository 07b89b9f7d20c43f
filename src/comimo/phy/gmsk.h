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

  /// modulate() evaluated only on detector_grid(bits.size()): `out[j]`
  /// equals `modulate(bits)[grid.first + j * grid.stride]` bit for bit.
  /// The phase is still summed over every sample, in modulate()'s order;
  /// only the cos/sin and the output are limited to the grid.  `out` is
  /// resized, so a caller can reuse it across frames.
  void modulate_grid(std::span<const std::uint8_t> bits,
                     std::vector<cplx>& out) const;

  /// demodulate() of a full-length waveform, from its detector-grid
  /// samples alone: bit k compares `grid[k + 1]` with `grid[k]`.  Makes
  /// `grid.size() - 1` decisions into `bits`, which is resized.
  static void demodulate_grid(std::span<const cplx> grid, BitVec& bits);

  [[nodiscard]] const GmskConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<double>& frequency_pulse() const noexcept {
    return pulse_;
  }

 private:
  GmskConfig config_;
  std::vector<double> pulse_;  // integrates to 1/2 (h = 0.5 phase per bit)
  // modulate()'s phase step of each sample of a symbol period, per
  // pattern of the span + 1 bits whose pulses cover it; empty when the
  // pulse is too long to tabulate.
  std::vector<double> phase_steps_;
};

}  // namespace comimo
