// Table 4's exact detector-grid chain, kept as the oracle of the
// certified receiver (underlay_receive).
//
// It evaluates every sample the differential detector reads: the GMSK
// waveform by cos/sin of the grid phases, the fading, and one full
// Box–Muller noise sample, skipping the other samples' noise draws.
// tests/test_detector_grid.cpp holds it to the full-waveform loop
// (modulate(), one AwgnChannel::sample() per sample, demodulate()), the
// root oracle.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/phy/gmsk.h"
#include "comimo/phy/modulation.h"

namespace comimo::oracle {

/// modulate(bits) evaluated only on detector_grid(bits.size()).
inline void modulate_grid(const GmskModem& modem,
                          std::span<const std::uint8_t> bits,
                          std::vector<cplx>& out) {
  out.clear();
  for (GmskGridWalk walk(modem, bits); walk.next();) {
    out.push_back(cplx{std::cos(walk.phase()), std::sin(walk.phase())});
  }
}

/// demodulate() of a full-length waveform from its detector-grid
/// samples alone: bit k compares `grid[k + 1]` with `grid[k]`.
inline void demodulate_grid(std::span<const cplx> grid, BitVec& bits) {
  bits.resize(grid.size() - 1);
  for (std::size_t k = 0; k < bits.size(); ++k) {
    const cplx d = grid[k + 1] * std::conj(grid[k]);
    bits[k] = d.imag() > 0.0 ? std::uint8_t{1} : std::uint8_t{0};
  }
}

/// One frame through Table 4's link, y = h·s + w, evaluated only on the
/// detector grid; `noise` ends where drawing every sample would leave
/// it.
inline void underlay_link_on_grid(const GmskModem& modem,
                                  std::span<const std::uint8_t> bits,
                                  const cplx& h, AwgnChannel& noise,
                                  std::vector<cplx>& y) {
  const GmskDetectorGrid grid = modem.detector_grid(bits.size());
  modulate_grid(modem, bits, y);
  noise.skip(grid.first);
  for (std::size_t j = 0; j < grid.count; ++j) {
    if (j > 0) noise.skip(grid.stride - 1);
    y[j] = h * y[j] + noise.sample();
  }
  noise.skip(grid.total - grid.last() - 1);
}

/// The exact chain's decisions for one frame.
inline BitVec underlay_decisions(const GmskModem& modem,
                                 std::span<const std::uint8_t> bits,
                                 const cplx& h, AwgnChannel& noise) {
  std::vector<cplx> y;
  underlay_link_on_grid(modem, bits, h, noise, y);
  BitVec decisions;
  demodulate_grid(y, decisions);
  return decisions;
}

}  // namespace comimo::oracle
