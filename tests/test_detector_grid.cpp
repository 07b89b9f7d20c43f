// Table 4's link at the GMSK detector's sample rate against the
// full-waveform chain.
//
// The exact grid chain (underlay_grid_oracle.h) modulates, fades and
// noises only the samples the differential detector reads, from
// GmskGridWalk, and skips the other samples' noise draws.
// The root oracle below is the loop Table 4 ran first: every sample of
// GmskModem::modulate() faded by h, one AwgnChannel::sample() each.  The
// two must agree bit for bit on every sample the detector reads, in the
// decisions, and in where they leave the noise stream.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/gmsk.h"
#include "underlay_grid_oracle.h"

namespace comimo {
namespace {

std::vector<cplx> full_waveform_link(const GmskModem& modem,
                                     const BitVec& bits, const cplx& h,
                                     AwgnChannel& noise) {
  const std::vector<cplx> s = modem.modulate(bits);
  std::vector<cplx> y(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    y[i] = h * s[i] + noise.sample();
  }
  return y;
}

bool same_bits(const cplx& a, const cplx& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

struct GridCase {
  unsigned sps;
  unsigned span;
  double bt;
};

TEST(DetectorGrid, LinkMatchesFullWaveformChainBitForBit) {
  // The last two straddle the phase-step table's size limit: (4, 13)
  // is tabulated, (2, 16) is summed per symbol throughout.
  const std::vector<GridCase> configs{
      {4, 4, 0.3}, {2, 1, 0.3}, {3, 2, 0.3}, {5, 3, 0.5}, {4, 1, 0.3},
      {8, 4, 0.3}, {6, 5, 0.5}, {4, 13, 0.3}, {2, 16, 0.3}};
  // Short, ragged and Table 4-length (1518-byte frame) frames, run back
  // to back on one noise stream so each frame's skipped tail counts.
  const std::vector<std::size_t> lengths{0, 1, 2, 3, 17, 255, 1001, 12144};
  const std::vector<cplx> gains{
      {1.0, 0.0}, {0.3, -2.1}, {-7.5, 4.25}, {1e-3, 5e2}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::size_t grid_samples = 0;
  for (const GridCase& c : configs) {
    GmskConfig gc;
    gc.samples_per_symbol = c.sps;
    gc.pulse_span_symbols = c.span;
    gc.bt = c.bt;
    const GmskModem modem(gc);
    for (const std::uint64_t seed : {7u, 11u, 2024u}) {
      for (const cplx& h : gains) {
        AwgnChannel full_noise(1.0, Rng(seed, 0xBEEF));
        AwgnChannel grid_noise(1.0, Rng(seed, 0xBEEF));
        std::vector<cplx> y_grid;
        BitVec grid_bits;
        for (const std::size_t n : lengths) {
          SCOPED_TRACE(::testing::Message()
                       << "sps=" << c.sps << " span=" << c.span
                       << " seed=" << seed << " h=" << h << " n=" << n);
          const BitVec bits = random_bits(n, seed ^ n);
          std::vector<cplx> y_full =
              full_waveform_link(modem, bits, h, full_noise);
          oracle::underlay_link_on_grid(modem, bits, h, grid_noise, y_grid);

          const GmskDetectorGrid grid = modem.detector_grid(n);
          ASSERT_EQ(grid.total, y_full.size());
          ASSERT_EQ(y_grid.size(), grid.count);
          ASSERT_EQ(grid.count, n + 1);
          ASSERT_LT(grid.last(), grid.total);
          std::size_t mismatches = 0;
          for (std::size_t j = 0; j < grid.count; ++j) {
            if (!same_bits(y_grid[j], y_full[grid.first + j * grid.stride])) {
              ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0u);
          grid_samples += grid.count;

          // Poison every sample off the grid: the full detector must not
          // read one, so its decisions stay those of the grid detector.
          for (std::size_t i = 0; i < y_full.size(); ++i) {
            if (i < grid.first || (i - grid.first) % grid.stride != 0 ||
                i > grid.last()) {
              y_full[i] = cplx{nan, nan};
            }
          }
          oracle::demodulate_grid(y_grid, grid_bits);
          EXPECT_EQ(grid_bits, modem.demodulate(y_full, n));

          // Both noise streams sit at the same place after the frame.
          AwgnChannel full_next = full_noise;
          AwgnChannel grid_next = grid_noise;
          EXPECT_TRUE(same_bits(full_next.sample(), grid_next.sample()));
        }
      }
    }
  }
  EXPECT_GT(grid_samples, 1000000u);
}

TEST(DetectorGrid, GeometryOfTheDefaultModem) {
  // sps 4, span 4: group delay 8, so bit k reads samples 4k + 6 and
  // 4k + 10 of (n + 4)·4.
  const GmskModem modem;
  const GmskDetectorGrid grid = modem.detector_grid(12144);
  EXPECT_EQ(grid.first, 6u);
  EXPECT_EQ(grid.stride, 4u);
  EXPECT_EQ(grid.count, 12145u);
  EXPECT_EQ(grid.total, 48592u);
  EXPECT_EQ(grid.last(), 48582u);
}

}  // namespace
}  // namespace comimo
