// The certified Table 4 receiver against the exact detector-grid chain.
//
// underlay_receive() settles most decisions from a pattern's noise-free
// margin and bounds on the noise taken from each sample's first word,
// and evaluates the rest exactly.  Its received bits must equal the
// exact chain's (tests/underlay_grid_oracle.h) frame by frame, and it
// must leave the noise stream where the exact chain does.  The bounds
// it rests on are checked on their own: AwgnChannel's two noise bounds
// against the Box–Muller samples they describe, and the modem's
// margins against modulate()'s own samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/gmsk.h"
#include "comimo/testbed/experiments.h"
#include "underlay_grid_oracle.h"

namespace comimo {
namespace {

bool same_bits(const cplx& a, const cplx& b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

GmskModem make_modem(unsigned sps, unsigned span, double bt) {
  GmskConfig gc;
  gc.samples_per_symbol = sps;
  gc.pulse_span_symbols = span;
  gc.bt = bt;
  return GmskModem(gc);
}

// The (sps, span, BT) configs of tests/test_detector_grid.cpp: (4, 13)
// is the largest tabulated pulse, (2, 16) has no table at all.
struct ModemCase {
  unsigned sps;
  unsigned span;
  double bt;
};
const std::vector<ModemCase> kConfigs{
    {4, 4, 0.3}, {2, 1, 0.3}, {3, 2, 0.3}, {5, 3, 0.5}, {4, 1, 0.3},
    {8, 4, 0.3}, {6, 5, 0.5}, {4, 13, 0.3}, {2, 16, 0.3}};

// Runs `frames` back to back through the receiver and through the exact
// chain, each on its own copy of one noise stream, and checks the bits
// and the streams' next sample after every frame.  Returns the share of
// decisions the receiver certified.
double expect_receiver_matches_exact_chain(
    const GmskModem& modem, const std::vector<BitVec>& frames, const cplx& h,
    const AwgnChannel& stream) {
  AwgnChannel noise = stream;
  AwgnChannel exact_noise = stream;
  UnderlayRx rx;
  std::size_t decisions = 0;
  std::size_t certified = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    SCOPED_TRACE(::testing::Message() << "frame " << f << " of "
                                      << frames[f].size() << " bits");
    const BitVec& bits = underlay_receive(modem, frames[f], h, noise, rx);
    const BitVec exact =
        oracle::underlay_decisions(modem, frames[f], h, exact_noise);
    EXPECT_EQ(&bits, &rx.bits);
    EXPECT_LE(rx.certified, bits.size());
    EXPECT_EQ(bits.size(), exact.size());
    std::size_t flipped = 0;
    for (std::size_t k = 0; k < std::min(bits.size(), exact.size()); ++k) {
      flipped += bits[k] != exact[k] ? 1 : 0;
    }
    EXPECT_EQ(flipped, 0u);
    AwgnChannel next = noise;
    AwgnChannel exact_next = exact_noise;
    EXPECT_TRUE(same_bits(next.sample(), exact_next.sample()));
    decisions += bits.size();
    certified += rx.certified;
  }
  return decisions > 0 ? static_cast<double>(certified) /
                             static_cast<double>(decisions)
                       : 1.0;
}

TEST(UnderlayReceive, MatchesExactChainForEveryModemGainAndNoiseLevel) {
  const std::vector<std::size_t> lengths{0, 1, 2, 3, 17, 255, 1001, 12144};
  const double subnormal = std::numeric_limits<double>::denorm_min() * 8;
  // 1e160 overflows the decision's products: no bound may be trusted.
  const std::vector<cplx> gains{{0.0, 0.0},  {subnormal, 0.0}, {1e-3, 0.0},
                                {1.0, 0.0},  {0.3, -2.1},      {-7.5, 4.25},
                                {1e-3, 5e2}, {1e160, 0.0}};
  double least = 1.0;
  double most = 0.0;
  for (const ModemCase& c : kConfigs) {
    const GmskModem modem = make_modem(c.sps, c.span, c.bt);
    std::vector<BitVec> frames;
    for (const std::size_t n : lengths) frames.push_back(random_bits(n, n));
    for (const double n0 : {0.0, 0.25, 1.0, 4.0}) {
      for (const cplx& h : gains) {
        SCOPED_TRACE(::testing::Message() << "sps=" << c.sps << " span="
                                          << c.span << " N0=" << n0
                                          << " h=" << h);
        const double share = expect_receiver_matches_exact_chain(
            modem, frames, h, AwgnChannel(n0, Rng(7, 0xBEEF)));
        if (!modem.pattern_decisions().empty() && std::norm(h) > 0.5 &&
            std::norm(h) < 1e6 && n0 > 0.0) {
          least = std::min(least, share);
          most = std::max(most, share);
        }
      }
    }
  }
  // Both regimes ran: gains where most decisions are evaluated exactly,
  // and gains where nearly all are certified.
  EXPECT_LT(least, 0.5);
  EXPECT_GT(most, 0.99);
}

// Frames whose decisions see one pattern over and over: all ones, all
// zeros, alternating, and frames built only from the patterns with the
// smallest margins (0.43 at the default config), across gains that put
// those margins on either side of the noise bounds.
TEST(UnderlayReceive, MatchesExactChainOnStructuredAndWeakPatternFrames) {
  for (const ModemCase& c :
       {ModemCase{4, 4, 0.3}, ModemCase{8, 4, 0.3}, ModemCase{5, 3, 0.5}}) {
    const GmskModem modem = make_modem(c.sps, c.span, c.bt);
    const std::vector<GmskPatternDecision>& table =
        modem.pattern_decisions();
    ASSERT_FALSE(table.empty());
    const std::size_t n = 12144;
    std::vector<BitVec> frames(4, BitVec(n, 0));
    std::fill(frames[0].begin(), frames[0].end(), 1);
    for (std::size_t k = 0; k < n; ++k) frames[2][k] = k % 2;
    // The weakest patterns, written out oldest bit first in random order.
    double weakest = 1.0;
    for (const GmskPatternDecision& d : table) {
      weakest = std::min(weakest, d.margin);
    }
    std::vector<std::size_t> weak;
    for (std::size_t p = 0; p < table.size(); ++p) {
      if (table[p].margin < weakest + 0.05) weak.push_back(p);
    }
    const auto pattern_bits = static_cast<std::size_t>(
        std::countr_zero(table.size()));
    Rng pick(c.sps * 100 + c.span);
    for (std::size_t k = 0; k < n;) {
      const std::size_t p = weak[pick.uniform_int(weak.size())];
      for (std::size_t d = pattern_bits; d-- > 0 && k < n; ++k) {
        frames[3][k] = static_cast<std::uint8_t>((p >> d) & 1);
      }
    }
    std::size_t weak_decisions = 0;
    for (GmskGridWalk walk(modem, frames[3]); walk.next();) {
      const std::uint32_t p = walk.pattern();
      if (p != GmskGridWalk::kNoPattern &&
          table[p].margin < weakest + 0.05) {
        ++weak_decisions;
      }
    }
    EXPECT_GT(weak_decisions, n / 5) << "sps=" << c.sps;

    for (const double gain : {0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 30.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "sps=" << c.sps << " span=" << c.span
                   << " |h|=" << gain);
      const cplx h = std::polar(gain, 0.7);
      (void)expect_receiver_matches_exact_chain(
          modem, frames, h, AwgnChannel(1.0, Rng(11, 0xBEEF)));
    }
  }
}

TEST(UnderlayReceive, SparePendingAtFrameStartIsDecidedExactly) {
  const GmskModem modem;
  std::vector<BitVec> frames;
  for (const std::size_t n : {0, 5, 1001, 12144}) {
    frames.push_back(random_bits(n, n + 3));
  }
  Rng rng(2024, 0xBEEF);
  (void)rng.gaussian();  // hands the stream over with its spare cached
  const AwgnChannel stream(1.0, rng);
  ASSERT_TRUE(stream.spare_pending());
  (void)expect_receiver_matches_exact_chain(modem, frames, {5.0, -1.0},
                                            stream);
  // Every sample of such a stream starts from the previous one's spare,
  // so nothing can be certified from a sample's own words.
  AwgnChannel noise = stream;
  UnderlayRx rx;
  (void)underlay_receive(modem, frames.back(), {5.0, -1.0}, noise, rx);
  EXPECT_EQ(rx.certified, 0u);
  EXPECT_TRUE(noise.spare_pending());
}

TEST(UnderlayReceive, PhaseBeyondTheLimitIsDecidedExactly) {
  // At 64 samples per symbol the margins' slack holds up to |φ| = 2¹⁵,
  // which an all-ones frame passes after about 20 900 bits; the
  // decisions beyond it have no pattern and are evaluated exactly.
  const GmskModem modem = make_modem(64, 4, 0.3);
  const BitVec ones(24000, 1);
  std::size_t unpatterned = 0;
  for (GmskGridWalk walk(modem, ones); walk.next();) {
    unpatterned += walk.pattern() == GmskGridWalk::kNoPattern ? 1 : 0;
  }
  EXPECT_GT(unpatterned, 2000u);
  const double share = expect_receiver_matches_exact_chain(
      modem, {ones}, {10.0, 0.0}, AwgnChannel(1.0, Rng(13, 0xBEEF)));
  EXPECT_LT(share, 1.0 - 2000.0 / 24000.0);
  EXPECT_GT(share, 0.8);
}

TEST(UnderlayReceive, CountersAddEachFramesDecisions) {
  obs::set_enabled(true);
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  reg.reset();
  const GmskModem modem;
  AwgnChannel noise(1.0, Rng(3, 0xBEEF));
  UnderlayRx rx;
  std::uint64_t decisions = 0;
  std::uint64_t certified = 0;
  for (const double gain : {0.0, 1.0, 3.0, 20.0}) {
    (void)underlay_receive(modem, random_bits(3000, 9), {gain, 0.0}, noise,
                           rx);
    decisions += rx.bits.size();
    certified += rx.certified;
  }
  EXPECT_EQ(reg.counter("testbed.underlay_decisions").value(), decisions);
  EXPECT_EQ(reg.counter("testbed.underlay_certified").value(), certified);
  EXPECT_GT(certified, 0u);
  EXPECT_LT(certified, decisions);
  reg.reset();
  obs::set_enabled(false);
}

// --- The modem's margins ----------------------------------------------

TEST(GmskPatternMargins, BoundModulatedDecisionsFromBelow) {
  for (const ModemCase& c : kConfigs) {
    const GmskModem modem = make_modem(c.sps, c.span, c.bt);
    const std::vector<GmskPatternDecision>& table =
        modem.pattern_decisions();
    const std::size_t n = 100000;
    std::vector<BitVec> frames{random_bits(n, c.sps + c.span),
                               BitVec(n, 1), BitVec(n, 0)};
    for (const BitVec& bits : frames) {
      SCOPED_TRACE(::testing::Message() << "sps=" << c.sps << " span="
                                        << c.span << " ones=" << bits[0]);
      const std::vector<cplx> x = modem.modulate(bits);
      const GmskDetectorGrid grid = modem.detector_grid(n);
      std::size_t checked = 0;
      std::size_t too_small = 0;
      std::size_t wrong_sign = 0;
      GmskGridWalk walk(modem, bits);
      for (std::size_t j = 0; walk.next(); ++j) {
        const std::uint32_t p = walk.pattern();
        if (j == 0 || p == GmskGridWalk::kNoPattern) continue;
        ASSERT_LT(p, table.size());
        const std::size_t i = grid.first + j * grid.stride;
        const double d = (x[i] * std::conj(x[i - grid.stride])).imag();
        too_small += table[p].margin <= std::abs(d) ? 0 : 1;
        wrong_sign += table[p].bit == (d > 0.0 ? 1 : 0) ? 0 : 1;
        ++checked;
      }
      EXPECT_EQ(too_small, 0u);
      EXPECT_EQ(wrong_sign, 0u);
      if (table.empty()) {
        EXPECT_EQ(checked, 0u);
      } else {
        // Only the decisions that touch the frame's edge periods miss.
        EXPECT_GE(checked, n - 2 * c.span - 2);
      }
    }
  }
}

TEST(GmskPatternMargins, DefaultModemHasFourMarginClusters) {
  // sps 4, span 4: bits k − 2 … k + 2 fix decision k's phase change, and
  // |sin Δ| falls in four clusters.
  const GmskModem modem;
  const std::vector<GmskPatternDecision>& table = modem.pattern_decisions();
  ASSERT_EQ(table.size(), 64u);  // six bits, the oldest of them unused
  for (const GmskPatternDecision& d : table) {
    const double m = d.margin;
    EXPECT_TRUE((m > 0.43 && m < 0.446) || (m > 0.727 && m < 0.738) ||
                (m > 0.927 && m < 0.934) || (m > 0.99 && m < 1.0))
        << m;
  }
}

// --- AwgnChannel's two noise bounds ------------------------------------

// 10⁶ seeded word pairs, plus first words at the extremes: w1 >> 11 at
// 0, 1, 2⁵² ± 1, 2⁵³ − 1 and on either side of every power-of-two
// boundary of u1 = 1 − (w1 >> 11)·2⁻⁵³.
std::vector<NoiseWords> bound_test_words() {
  std::vector<NoiseWords> words;
  Rng rng(2718);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t w1 = rng.next();
    words.push_back({w1, rng.next()});
  }
  const std::uint64_t top = std::uint64_t{1} << 53;
  std::vector<std::uint64_t> mantissas{0, 1, 2, (top >> 1) - 1, top >> 1,
                                       (top >> 1) + 1, top - 2, top - 1};
  for (int k = 1; k <= 53; ++k) {
    const std::uint64_t j = top - (top >> k);  // u1 = 2^-k
    for (const std::uint64_t d : {j - 1, j, j + 1}) {
      if (d < top) mantissas.push_back(d);
    }
  }
  for (const std::uint64_t j : mantissas) {
    for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
      for (const std::uint64_t w2 :
           {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1} << 62}) {
        words.push_back({(j << 11) | low, w2});
      }
    }
  }
  return words;
}

TEST(NoiseBounds, FirstBoundNeverPromisesTooSmallANoise) {
  const std::vector<NoiseWords> words = bound_test_words();
  for (const double n0 : {0.25, 1.0, 4.0}) {
    const AwgnChannel noise(n0, Rng(1));
    std::size_t broken = 0;
    std::size_t qualified_loose = 0;
    for (const NoiseWords& w : words) {
      const cplx n = noise.sample_from(w);
      const double n2 = n.real() * n.real() + n.imag() * n.imag();
      const auto j = static_cast<std::int64_t>(w.w1 >> 11);
      // Thresholds just above, at and just below this sample's own
      // |n|²: a word the bound lets through must lie strictly below.
      for (const double f : {1.0 - 1e-8, 1.0, 1.0 + 1e-12, 1.0 + 1e-9,
                             1.0 + 2e-9, 1.0 + 1e-6, 1.01}) {
        const double t2 = n2 * f;
        if (j <= noise.small_noise_word(t2) && !(n2 < t2)) ++broken;
      }
      // 1 % above |n|², plus 64 of the 2⁻⁵³ steps of u1 near 1.
      const double t2 = n2 * 1.01 + n0 * 0x1.0p-47;
      qualified_loose += j <= noise.small_noise_word(t2) ? 1 : 0;
    }
    EXPECT_EQ(broken, 0u) << "N0=" << n0;
    // And the bound is not vacuous: a threshold a little above |n|² lets
    // the word through.
    EXPECT_EQ(qualified_loose, words.size()) << "N0=" << n0;
  }
  // Without noise every word qualifies for any positive threshold.
  const AwgnChannel silent(0.0, Rng(1));
  EXPECT_EQ(silent.small_noise_word(1e-300), std::int64_t{1} << 53);
  EXPECT_EQ(silent.small_noise_word(0.0), -1);
}

TEST(NoiseBounds, SecondBoundCoversEverySample) {
  const std::vector<NoiseWords> words = bound_test_words();
  for (const double n0 : {0.0, 0.25, 1.0, 4.0}) {
    const AwgnChannel noise(n0, Rng(1));
    std::size_t broken = 0;
    double worst_excess = 0.0;  // (R² − |n|²)/N0: the bound's looseness
    for (const NoiseWords& w : words) {
      const cplx n = noise.sample_from(w);
      const double r = noise.noise_bound(w.w1);
      if (!(std::abs(n) < r || (n0 == 0.0 && r == 0.0))) ++broken;
      if (n0 > 0.0) {
        worst_excess = std::max(worst_excess, (r * r - std::norm(n)) / n0);
      }
    }
    EXPECT_EQ(broken, 0u) << "N0=" << n0;
    // ln y ≤ (y − 1/y)/2 on (1, 2] is at most 0.057 over.
    EXPECT_LT(worst_excess, 0.06) << "N0=" << n0;
  }
}

TEST(NoiseBounds, PromiseNothingOutsideTheirVarianceRange) {
  for (const double n0 : {std::numeric_limits<double>::infinity(), 1e-310,
                          0x1.0p-1001, 0x1.0p1001}) {
    const AwgnChannel noise(n0, Rng(1));
    EXPECT_EQ(noise.small_noise_word(1.0), -1) << n0;
    EXPECT_EQ(noise.noise_bound(0), std::numeric_limits<double>::infinity())
        << n0;
  }
}

TEST(NoiseBounds, SampleFromWordsEqualsSample) {
  // draw_words() + sample_from() is sample(), bit for bit, and leaves the
  // stream where sample() does.
  for (const double n0 : {0.0, 0.25, 1.0, 4.0}) {
    AwgnChannel a(n0, Rng(5, 0xBEEF));
    AwgnChannel b(n0, Rng(5, 0xBEEF));
    for (int i = 0; i < 10000; ++i) {
      const cplx x = a.sample();
      const cplx y = b.sample_from(b.draw_words());
      ASSERT_TRUE(same_bits(x, y)) << i;
    }
    EXPECT_TRUE(same_bits(a.sample(), b.sample()));
  }
}

}  // namespace
}  // namespace comimo
