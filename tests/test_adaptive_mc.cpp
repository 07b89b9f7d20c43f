// Adaptive precision-targeted Monte-Carlo: run_mc with a stop rule
// (mc/engine.h, mc/adaptive.h).
//
// Test names matter for CI: scripts/ci.sh runs the AdaptiveMc and
// ImportanceSampling suites under ASan+UBSan and on the
// -DCOMIMO_SIMD=OFF leg, so the checkpoint loop and the IS estimator
// are exercised with sanitizers and with the batch path disabled.
#include "comimo/mc/adaptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/mc/engine.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/ber.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/hop_batch.h"

namespace comimo {
namespace {

// A cheap synthetic trial with a rate-shaped event stream: ~5% of
// trials count an "event", every trial counts "trials" and observes a
// gaussian — enough structure for both stopping-rule shapes.
void event_trial(std::size_t, Rng& rng, McAccumulator& acc) {
  acc.count("trials");
  if (rng.bernoulli(0.05)) acc.count("events");
  acc.observe("gauss", 1.0 + rng.complex_gaussian().real());
}

// event_trial run lane by lane as a batch function.
void event_batch(std::size_t first, std::size_t count, Rng* rngs,
                 McAccumulator& acc) {
  for (std::size_t i = 0; i < count; ++i) event_trial(first + i, rngs[i], acc);
}

McStop rate_target(double rel_ci) {
  McStop stop;
  stop.adaptive.target_rel_ci = rel_ci;
  stop.rule = StopRule{"events", "trials"};
  return stop;
}

TEST(AdaptiveMc, ConfidenceZMatchesNormalQuantiles) {
  EXPECT_NEAR(confidence_z(0.95), 1.9599639845400545, 1e-9);
  EXPECT_NEAR(confidence_z(0.99), 2.5758293035489004, 1e-9);
}

TEST(AdaptiveMc, RateRelCiShrinksWithEvents) {
  const double z = confidence_z(0.95);
  EXPECT_TRUE(std::isinf(rate_rel_ci(0, 1000, z)));
  const double a = rate_rel_ci(100, 100000, z);
  const double b = rate_rel_ci(400, 400000, z);
  EXPECT_NEAR(a, z * std::sqrt((1.0 - 1e-3) / 100.0), 1e-12);
  EXPECT_NEAR(a / b, 2.0, 1e-9);  // 4x the events, half the rel CI
}

TEST(AdaptiveMc, StopsEarlyAndSavesTrials) {
  McConfig mc;
  mc.seed = 7;
  const McResult r = run_mc(200000, mc, event_batch, rate_target(0.1));
  EXPECT_TRUE(r.target_met);
  EXPECT_LT(r.info.trials, 200000u);
  EXPECT_GT(r.info.trials, 0u);
  EXPECT_LE(r.rel_ci, 0.1);
  EXPECT_EQ(r.acc.counter("trials"), r.info.trials);
  // ~z²(1−p)/(ρ²p) ≈ 7300 events-bearing trials needed at p = 0.05 —
  // the checkpoint quantization may overshoot by one round, never by
  // orders of magnitude.
  EXPECT_LT(r.info.trials, 40000u);
}

TEST(AdaptiveMc, BitIdenticalAcrossThreadsAndShards) {
  McConfig base;
  base.seed = 11;
  const McResult ref = run_mc(60000, base, event_batch, rate_target(0.12));
  for (const unsigned workers : {2u, 5u}) {
    ThreadPool pool(workers);
    McConfig cfg = base;
    cfg.pool = &pool;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{8}}) {
        cfg.shards = shards;
        cfg.batch_width = width;
        const McResult r = run_mc(60000, cfg, event_batch, rate_target(0.12));
        EXPECT_TRUE(r.acc == ref.acc) << workers << " workers x " << shards
                                      << " shards x width " << width;
        EXPECT_EQ(r.info.trials, ref.info.trials);
        EXPECT_EQ(r.checkpoints, ref.checkpoints);
        EXPECT_EQ(r.target_met, ref.target_met);
        EXPECT_EQ(r.rel_ci, ref.rel_ci);
      }
    }
  }
}

TEST(AdaptiveMc, ExhaustedBudgetIsBitIdenticalToFixedRun) {
  McConfig mc;
  mc.seed = 3;
  const std::size_t trials = 20000;
  // An unreachable target: the adaptive run must execute the full
  // budget and reduce to *exactly* the fixed run's bits — same chunk
  // partition, same streams, same fold order.
  const McResult r = run_mc(trials, mc, event_batch, rate_target(1e-6));
  const McResult fixed = run_trials(trials, mc, event_trial);
  EXPECT_FALSE(r.target_met);
  EXPECT_EQ(r.info.trials, trials);
  const std::size_t every = resolve_checkpoint_every(fixed.info.chunks, 0);
  EXPECT_EQ(r.checkpoints, (fixed.info.chunks + every - 1) / every);
  EXPECT_TRUE(r.acc == fixed.acc);
  EXPECT_EQ(fixed.checkpoints, 0u);
  EXPECT_EQ(fixed.rel_ci, 0.0);
}

TEST(AdaptiveMc, StatRuleStopsOnRunningStats) {
  McConfig mc;
  mc.seed = 5;
  McStop stop;
  stop.adaptive.target_rel_ci = 0.05;
  stop.rule = StopRule{"gauss", ""};
  const McResult r = run_mc(500000, mc, event_batch, stop);
  EXPECT_TRUE(r.target_met);
  EXPECT_LT(r.info.trials, 500000u);
  // rel CI z·σ/(√n·µ) with σ ≈ 1/√2, µ ≈ 1 → n ≈ 770; one checkpoint
  // round of the 500k budget is 500000/1024/... — allow slack.
  EXPECT_LE(r.rel_ci, 0.05);
}

TEST(AdaptiveMc, WindowedEngineComposesToFullRun) {
  // The checkpoint loop's rounds are consecutive chunk windows of the
  // full run's partition, folded per chunk in ascending ordinal — never
  // as pre-reduced window partials, which would drift by ulps (the
  // Welford merge is not associative bitwise).  With a target no
  // window meets, every schedule must reproduce the one-round run.
  McConfig mc;
  mc.seed = 9;
  const std::size_t trials = 5000;
  const McResult full = run_trials(trials, mc, event_trial);
  for (const std::size_t every : {1u, 3u, 100u, 5000u}) {
    McStop stop = rate_target(1e-9);
    stop.adaptive.checkpoint_every = every;
    const McResult windowed = run_mc(trials, mc, event_batch, stop);
    EXPECT_TRUE(windowed.acc == full.acc) << every << " chunks per window";
    EXPECT_EQ(windowed.checkpoints,
              (full.info.chunks + every - 1) / every);
  }
}

TEST(AdaptiveMc, StopRuleWithoutStatIsRejected) {
  McConfig mc;
  McStop stop;
  stop.adaptive.target_rel_ci = 0.1;
  EXPECT_THROW((void)run_mc(100, mc, event_batch, stop), InvalidArgument);
  // Zero trials still reports "not estimable" for an adaptive run.
  const McResult none = run_mc(0, mc, event_batch, rate_target(0.1));
  EXPECT_EQ(none.info.trials, 0u);
  EXPECT_EQ(none.rel_ci, std::numeric_limits<double>::infinity());
}

TEST(AdaptiveMc, WaveformPointStopsAndStaysDeterministic) {
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 60000;
  cfg.seed = 21;
  cfg.adaptive.target_rel_ci = 0.25;
  const WaveformBerPoint ref = measure_waveform_ber(cfg, 6.0);
  EXPECT_TRUE(ref.target_met);
  EXPECT_LT(ref.trials_executed, cfg.blocks);
  EXPECT_GT(ref.bit_errors, 0u);

  ThreadPool pool(3);
  WaveformBerConfig par = cfg;
  par.pool = &pool;
  par.shards = 2;
  const WaveformBerPoint p = measure_waveform_ber(par, 6.0);
  EXPECT_EQ(p.bit_errors, ref.bit_errors);
  EXPECT_EQ(p.bits, ref.bits);
  EXPECT_EQ(p.trials_executed, ref.trials_executed);
  EXPECT_EQ(p.checkpoints, ref.checkpoints);
  EXPECT_EQ(p.rel_ci, ref.rel_ci);
}

// Satellite fix: the analytic reference must describe the simulated
// link.  The STBC total-power normalization (1/√mt) spreads γ_b over
// the mt branches, so the closed form is evaluated at γ_b/mt — pinned
// here against the empirical 2×2 QPSK point that exposed the 8.5x
// discrepancy in the committed BENCH_mc_engine.json.
TEST(AdaptiveMc, AnalyticReferenceMatchesEmpirical) {
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 60000;
  cfg.seed = 42;
  const WaveformBerPoint p = measure_waveform_ber(cfg, 6.0);
  ASSERT_GT(p.bit_errors, 100u);
  EXPECT_EQ(p.analytic,
            ber_mqam_rayleigh_mimo(2, db_to_linear(6.0) / 2.0, 2, 2));
  // ~480 errors → ~9% two-sided CI at 2σ; 15% relative tolerance also
  // absorbs the nearest-neighbour approximation of the closed form.
  EXPECT_NEAR(p.ber, p.analytic, 0.15 * p.analytic);
}

TEST(ImportanceSampling, WeightsAreUnitAtScaleOne) {
  const WaveformBerKernel kernel(2, 2, 2, db_to_linear(6.0));
  HopBatchWorkspace ws_a;
  LinkWorkspace ws_b;
  kernel.prepare_batch(ws_a, 1);
  kernel.prepare(ws_b);
  for (std::uint64_t t = 0; t < 50; ++t) {
    Rng ra(123, t);
    Rng rb(123, t);
    const std::size_t plain = kernel.run_block_batch(ws_a, &ra, 1);
    const WaveformBerKernel::IsBlock is =
        kernel.run_block_is(ws_b, rb, 1.0, 1.0);
    EXPECT_EQ(is.bit_errors, plain);
    EXPECT_DOUBLE_EQ(is.weight, 1.0);
  }
}

TEST(ImportanceSampling, UnbiasedAgainstAnalyticBpskBer) {
  // BPSK over 2×2 Alamouti + exact ML is MRC over 4 branches, where
  // ber_mqam_rayleigh_mimo(1, γ_b/2, 2, 2) is exact (not a
  // nearest-neighbour bound) — the cleanest unbiasedness pin available.
  WaveformBerConfig cfg;
  cfg.b = 1;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 400000;
  cfg.seed = 77;
  cfg.adaptive.target_rel_ci = 0.1;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  cfg.adaptive.is_noise_scale = 2.0;
  const double gamma_db = 10.0;
  const WaveformBerPoint p = measure_waveform_ber(cfg, gamma_db);
  const double analytic =
      ber_mqam_rayleigh_mimo(1, db_to_linear(gamma_db) / 2.0, 2, 2);
  EXPECT_EQ(p.analytic, analytic);
  ASSERT_GT(p.ber, 0.0);
  // ESS is over the error-block weights (the estimator's nonzero
  // terms); a noise tilt spreads them, so demand a floor, not
  // near-constancy.
  ASSERT_GT(p.err_blocks, 0u);
  EXPECT_GT(p.ess, 50.0);
  // The run stopped at rel CI <= 0.1 (or spent the budget getting
  // close); demand agreement within the achieved interval plus the
  // statistical slack of this one seed.
  const double tol = std::max(3.0 * p.rel_ci, 0.05) * analytic;
  EXPECT_NEAR(p.ber, analytic, tol)
      << "IS estimate " << p.ber << " vs analytic " << analytic
      << " (rel_ci " << p.rel_ci << ", ess " << p.ess << ")";
}

TEST(ImportanceSampling, ChannelTiltIsUnbiasedAndBeatsNoiseTilt) {
  // Same unbiasedness pin, but with the fade tilt — the proposal that
  // matches the physics: high-SNR errors in a diversity link come from
  // deep fades, so CN(0, 1/λ) fading concentrates the trials on the
  // event that matters and the weights on error blocks stay nearly
  // constant (high error-block ESS).
  WaveformBerConfig cfg;
  cfg.b = 1;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 400000;
  cfg.seed = 77;
  cfg.adaptive.target_rel_ci = 0.1;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  cfg.adaptive.is_noise_scale = 1.0;  // noise untilted
  cfg.adaptive.is_channel_scale = 2.0;
  const double gamma_db = 10.0;
  const WaveformBerPoint p = measure_waveform_ber(cfg, gamma_db);
  const double analytic =
      ber_mqam_rayleigh_mimo(1, db_to_linear(gamma_db) / 2.0, 2, 2);
  ASSERT_GT(p.ber, 0.0);
  ASSERT_GT(p.err_blocks, 0u);
  EXPECT_GT(p.ess, 0.5 * static_cast<double>(p.err_blocks))
      << "fade-tilt error-block weights should be nearly constant";
  const double tol = std::max(3.0 * p.rel_ci, 0.05) * analytic;
  EXPECT_NEAR(p.ber, analytic, tol)
      << "fade-tilted estimate " << p.ber << " vs analytic " << analytic
      << " (rel_ci " << p.rel_ci << ", ess " << p.ess << "/"
      << p.err_blocks << ")";

  // The fade tilt must reach the same precision with fewer trials than
  // an untilted run needs: its stopping point is well under the naive
  // equal-CI cost z²(1−p)/(ρ²·p·bits_per_block).
  const double z = confidence_z(cfg.adaptive.confidence);
  const double naive = z * z * (1.0 - analytic) /
                       (0.1 * 0.1 * analytic * 2.0 /* bits per block */);
  if (p.target_met) {
    EXPECT_LT(static_cast<double>(p.trials_executed), 0.5 * naive)
        << "fade tilt saved no trials over the projected naive cost "
        << naive;
  }
}

TEST(ImportanceSampling, DeterministicAcrossThreadsAndShards) {
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 30000;
  cfg.seed = 31;
  cfg.adaptive.target_rel_ci = 0.2;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  cfg.adaptive.is_noise_scale = 1.5;
  cfg.adaptive.is_channel_scale = 1.5;  // both tilts in play
  const WaveformBerPoint ref = measure_waveform_ber(cfg, 6.0);

  ThreadPool pool(4);
  WaveformBerConfig par = cfg;
  par.pool = &pool;
  par.shards = 4;
  const WaveformBerPoint p = measure_waveform_ber(par, 6.0);
  EXPECT_EQ(p.bit_errors, ref.bit_errors);
  EXPECT_EQ(p.trials_executed, ref.trials_executed);
  EXPECT_EQ(p.ber, ref.ber);  // bitwise: same fold sequence
  EXPECT_EQ(p.ess, ref.ess);
  EXPECT_EQ(p.rel_ci, ref.rel_ci);
}

TEST(ImportanceSampling, RejectsScalesBelowOneOrNotFinite) {
  // The kernel only DCHECKs its scales; measure_waveform_ber checks them
  // in every build, before the first trial, whenever IS runs.  Unchecked,
  // a scale below 1 or NaN turns a Release build's estimate into NaN or 0.
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 64;
  cfg.adaptive.target_rel_ci = 0.2;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  const double bad[] = {0.0, -1.0, 0.5,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    WaveformBerConfig noise = cfg;
    noise.adaptive.is_noise_scale = v;
    EXPECT_THROW((void)measure_waveform_ber(noise, 6.0), InvalidArgument)
        << "is_noise_scale " << v;
    WaveformBerConfig chan = cfg;
    chan.adaptive.is_noise_scale = 1.0;
    chan.adaptive.is_channel_scale = v;
    EXPECT_THROW((void)measure_waveform_ber(chan, 6.0), InvalidArgument)
        << "is_channel_scale " << v;
  }
  // Scales of exactly 1 are the untilted path, and without IS the scales
  // are never read.
  WaveformBerConfig unit = cfg;
  unit.adaptive.is_noise_scale = 1.0;
  unit.adaptive.is_channel_scale = 1.0;
  EXPECT_NO_THROW((void)measure_waveform_ber(unit, 6.0));
  WaveformBerConfig off = cfg;
  off.adaptive.is_mode = IsMode::kOff;
  off.adaptive.is_noise_scale = 0.0;
  EXPECT_NO_THROW((void)measure_waveform_ber(off, 6.0));
}

TEST(AdaptiveMc, NonFiniteGammaIsRejectedBeforeAnyBlock) {
  // A NaN or infinite γ_b has no closed form to compare against and no
  // finite symbol scale; the point must throw before its first block,
  // on the fixed and the adaptive path alike.
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Counter blocks = reg.counter("phy.link_blocks");
  WaveformBerConfig fixed;
  fixed.b = 2;
  fixed.mt = 2;
  fixed.mr = 2;
  fixed.blocks = 2000;
  WaveformBerConfig adaptive = fixed;
  adaptive.adaptive.target_rel_ci = 0.1;
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const WaveformBerConfig& cfg : {fixed, adaptive}) {
    for (const double gamma_db : bad) {
      const std::uint64_t before = blocks.value();
      EXPECT_THROW((void)measure_waveform_ber(cfg, gamma_db), InvalidArgument)
          << "gamma_b_db " << gamma_db;
      EXPECT_EQ(blocks.value(), before) << "gamma_b_db " << gamma_db;
    }
  }
  obs::set_enabled(was_enabled);
  // The kernel itself takes a linear γ_b: NaN, ±∞ and negative values
  // have no real symbol scale.
  for (const double gamma_b :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0}) {
    EXPECT_THROW(WaveformBerKernel(2, 2, 2, gamma_b), InvalidArgument)
        << "gamma_b " << gamma_b;
  }
  EXPECT_NO_THROW(WaveformBerKernel(2, 2, 2, 0.0));
}

TEST(ImportanceSampling, RequiresCiTarget) {
  // IS runs only on the adaptive path.  Asked for without a CI target,
  // the point used to come back untilted, "ber": 0 at a deep point,
  // with no IS fields; it must be an InvalidArgument instead.
  WaveformBerConfig cfg;
  cfg.b = 1;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 64;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  cfg.adaptive.is_channel_scale = 3.0;
  for (const double target : {0.0, -0.1}) {
    cfg.adaptive.target_rel_ci = target;
    EXPECT_THROW((void)measure_waveform_ber(cfg, 12.0), InvalidArgument)
        << "target_rel_ci " << target;
  }
  cfg.adaptive.target_rel_ci = 0.2;
  EXPECT_NO_THROW((void)measure_waveform_ber(cfg, 12.0));
}

}  // namespace
}  // namespace comimo
