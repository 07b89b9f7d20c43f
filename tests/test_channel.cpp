// Unit tests for the channel substrate: path loss, fading, AWGN,
// multipath, indoor links.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "comimo/channel/awgn.h"
#include "comimo/channel/fading.h"
#include "comimo/channel/indoor.h"
#include "comimo/channel/multipath.h"
#include "comimo/channel/pathloss.h"
#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/numeric/stats.h"

namespace comimo {
namespace {

// --- path loss ---------------------------------------------------------

TEST(PowerLawPathLoss, FollowsExponent) {
  const PowerLawPathLoss pl(1.0, 3.5, 1.0);
  EXPECT_NEAR(pl.attenuation(1.0), 1.0, 1e-12);
  EXPECT_NEAR(pl.attenuation(10.0), std::pow(10.0, 3.5), 1e-6);
  EXPECT_NEAR(pl.attenuation_db(10.0), 35.0, 1e-9);
}

TEST(PowerLawPathLoss, FromSystemParams) {
  const SystemParams params;
  const PowerLawPathLoss pl(params);
  EXPECT_NEAR(pl.attenuation(2.0), params.local_gain(2.0), 1e-6);
}

TEST(PowerLawPathLoss, RejectsBadParameters) {
  EXPECT_THROW(PowerLawPathLoss(0.0, 3.5, 1.0), InvalidArgument);
  EXPECT_THROW(PowerLawPathLoss(1.0, -1.0, 1.0), InvalidArgument);
  const PowerLawPathLoss pl(1.0, 2.0, 1.0);
  EXPECT_THROW(pl.attenuation(-1.0), InvalidArgument);
}

TEST(FreeSpacePathLoss, MatchesLongHaulFactor) {
  const SystemParams params;
  const FreeSpacePathLoss pl(params);
  for (double d : {10.0, 100.0, 250.0}) {
    EXPECT_NEAR(pl.attenuation(d), params.long_haul_attenuation(d),
                params.long_haul_attenuation(d) * 1e-12);
  }
}

TEST(ObstructedPathLoss, AddsFixedDb) {
  const SystemParams params;
  auto base = std::make_shared<FreeSpacePathLoss>(params);
  const ObstructedPathLoss obstructed(base, 12.0);
  EXPECT_NEAR(obstructed.attenuation_db(100.0),
              base->attenuation_db(100.0) + 12.0, 1e-9);
  EXPECT_THROW(ObstructedPathLoss(nullptr, 3.0), InvalidArgument);
  EXPECT_THROW(ObstructedPathLoss(base, -1.0), InvalidArgument);
}

// --- Rayleigh fading ----------------------------------------------------

TEST(RayleighBlockFading, ShapeAndUnitPower) {
  RayleighBlockFading fading(2, 3, Rng(7));
  RunningStats power;
  for (int i = 0; i < 3000; ++i) {
    const CMatrix h = fading.next_block();
    EXPECT_EQ(h.rows(), 3u);
    EXPECT_EQ(h.cols(), 2u);
    power.add(h.frobenius_norm2());
  }
  EXPECT_NEAR(power.mean(), 6.0, 0.2);
}

TEST(RayleighBlockFading, BlocksAreIndependent) {
  RayleighBlockFading fading(1, 1, Rng(8));
  const CMatrix a = fading.next_block();
  const CMatrix b = fading.next_block();
  EXPECT_GT(a.max_abs_diff(b), 1e-9);
}

TEST(CorrelatedFadingTrack, StationaryPower) {
  CorrelatedFadingTrack track(0.95, Rng(9));
  RunningStats power;
  for (int i = 0; i < 100000; ++i) power.add(std::norm(track.next()));
  EXPECT_NEAR(power.mean(), 1.0, 0.1);
}

TEST(CorrelatedFadingTrack, NeighborCorrelationMatchesRho) {
  const double rho = 0.9;
  CorrelatedFadingTrack track(rho, Rng(10));
  double corr = 0.0;
  cplx prev = track.next();
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const cplx cur = track.next();
    corr += (std::conj(prev) * cur).real();
    prev = cur;
  }
  EXPECT_NEAR(corr / n, rho, 0.02);
}

TEST(CorrelatedFadingTrack, RejectsBadRho) {
  EXPECT_THROW(CorrelatedFadingTrack(1.0, Rng(1)), InvalidArgument);
  EXPECT_THROW(CorrelatedFadingTrack(-0.1, Rng(1)), InvalidArgument);
}

// --- AWGN ----------------------------------------------------------------

TEST(AwgnChannel, NoisePowerMatchesVariance) {
  AwgnChannel awgn(0.25, Rng(11));
  RunningStats power;
  for (int i = 0; i < 100000; ++i) power.add(std::norm(awgn.sample()));
  EXPECT_NEAR(power.mean(), 0.25, 0.01);
}

TEST(AwgnChannel, ZeroVarianceIsTransparent) {
  AwgnChannel awgn(0.0, Rng(12));
  std::vector<cplx> s{1.0, {0.0, 1.0}, -2.0};
  const auto orig = s;
  awgn.apply(s);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], orig[i]);
}

TEST(AwgnChannel, SkipThenSampleEqualsTheNextSample) {
  // skip(k) then sample() must equal the (k+1)-th sample(), bit for
  // bit, both for a fresh stream and for one handed over with a
  // Gaussian spare pending.
  for (const bool spare : {false, true}) {
    Rng base(21, 3);
    if (spare) (void)base.gaussian();
    ASSERT_EQ(base.gaussian_spare_pending(), spare);
    for (const std::size_t k : {0u, 1u, 2u, 3u, 7u, 100u}) {
      AwgnChannel drawn(0.5, base);
      AwgnChannel skipped(0.5, base);
      for (std::size_t i = 0; i < k; ++i) (void)drawn.sample();
      skipped.skip(k);
      // Three samples on: the spare the skip leaves must be right too.
      for (int i = 0; i < 3; ++i) {
        const cplx a = drawn.sample();
        const cplx b = skipped.sample();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.real()),
                  std::bit_cast<std::uint64_t>(b.real()))
            << "spare=" << spare << " k=" << k << " i=" << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.imag()),
                  std::bit_cast<std::uint64_t>(b.imag()))
            << "spare=" << spare << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(AwgnChannel, AddReturnsNoisyCopy) {
  AwgnChannel awgn(1.0, Rng(13));
  const std::vector<cplx> s(100, cplx{1.0, 0.0});
  const auto noisy = awgn.add(s);
  EXPECT_EQ(noisy.size(), s.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    diff += std::abs(noisy[i] - s[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(NoiseVarianceForEbn0, KnownMapping) {
  // Eb/N0 = 0 dB with unit-energy BPSK symbols: N0 = 1.
  EXPECT_NEAR(noise_variance_for_ebn0_db(0.0, 1.0, 1.0), 1.0, 1e-12);
  // 10 dB: N0 = 0.1.
  EXPECT_NEAR(noise_variance_for_ebn0_db(10.0, 1.0, 1.0), 0.1, 1e-12);
  // 2 bits/symbol halves Eb at fixed Es.
  EXPECT_NEAR(noise_variance_for_ebn0_db(0.0, 1.0, 2.0), 0.5, 1e-12);
}

// --- multipath -----------------------------------------------------------

TEST(TappedDelayLine, SingleTapIsFlat) {
  MultipathProfile profile;
  profile.num_taps = 1;
  TappedDelayLine tdl(profile, Rng(14));
  const std::vector<cplx> x{1.0, 2.0, 3.0};
  const auto y = tdl.apply(x);
  const cplx h = tdl.taps()[0];
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(std::abs(y[i] - h * x[i]), 0.0, 1e-12);
  }
}

TEST(TappedDelayLine, MeanPowerNormalized) {
  MultipathProfile profile;
  profile.num_taps = 4;
  profile.tap_decay_db = 3.0;
  TappedDelayLine tdl(profile, Rng(15));
  RunningStats power;
  for (int i = 0; i < 20000; ++i) {
    tdl.redraw();
    power.add(tdl.channel_power());
  }
  EXPECT_NEAR(power.mean(), 1.0, 0.05);
}

TEST(TappedDelayLine, RicianFirstTapHasLosBias) {
  MultipathProfile profile;
  profile.num_taps = 1;
  profile.k_factor = 100.0;  // almost pure LOS
  TappedDelayLine tdl(profile, Rng(16));
  RunningStats mag;
  for (int i = 0; i < 2000; ++i) {
    tdl.redraw();
    mag.add(std::abs(tdl.taps()[0]));
  }
  // With K = 100 the envelope is nearly deterministic at 1.
  EXPECT_NEAR(mag.mean(), 1.0, 0.02);
  EXPECT_LT(mag.stddev(), 0.1);
}

TEST(TappedDelayLine, FirConvolutionIsCausal) {
  MultipathProfile profile;
  profile.num_taps = 3;
  profile.normalize_power = false;
  TappedDelayLine tdl(profile, Rng(17));
  // Impulse response equals the taps.
  std::vector<cplx> impulse(5, cplx{0.0, 0.0});
  impulse[0] = 1.0;
  const auto y = tdl.apply(impulse);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(std::abs(y[i] - tdl.taps()[i]), 0.0, 1e-12);
  }
  EXPECT_NEAR(std::abs(y[3]), 0.0, 1e-12);
}

// --- indoor link ----------------------------------------------------------

TEST(IndoorLink, GainAndObstructionApply) {
  IndoorLinkConfig cfg;
  cfg.gain_db = -6.0;
  cfg.obstacle_loss_db = 14.0;
  IndoorLink link(cfg, Rng(18));
  EXPECT_NEAR(link.mean_amplitude_gain(),
              std::pow(10.0, -20.0 / 20.0), 1e-12);
}

TEST(IndoorLink, PhaseOffsetRotatesOutput) {
  IndoorLinkConfig cfg;
  cfg.phase_offset_rad = kPi;  // sign flip
  IndoorLink link(cfg, Rng(19));
  const std::vector<cplx> x{1.0};
  const auto y = link.propagate(x);
  // One flat unit-power... tap is random; compare against the same link
  // without the offset by linearity: y(π) = -y(0) requires the same tap,
  // so instead check |y| unchanged and the rotation via a second link
  // sharing the RNG seed.
  IndoorLinkConfig cfg0;
  IndoorLink link0(cfg0, Rng(19));
  const auto y0 = link0.propagate(x);
  EXPECT_NEAR(std::abs(y[0] + y0[0]), 0.0, 1e-12);
}

TEST(Superpose, SumsStreams) {
  const std::vector<std::vector<cplx>> streams{
      {1.0, 2.0}, {cplx{0.0, 1.0}, -1.0}};
  const auto sum = superpose(streams);
  EXPECT_EQ(sum[0], cplx(1.0, 1.0));
  EXPECT_EQ(sum[1], cplx(1.0, 0.0));
}

TEST(Superpose, RejectsRaggedStreams) {
  EXPECT_THROW(superpose({{1.0}, {1.0, 2.0}}), InvalidArgument);
  EXPECT_THROW(superpose({}), InvalidArgument);
}

}  // namespace
}  // namespace comimo
