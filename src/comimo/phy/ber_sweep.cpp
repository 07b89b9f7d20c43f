#include "comimo/phy/ber_sweep.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/ber.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {

namespace {
// Same metric as link_workspace.cpp's per-block counter (the registry is
// idempotent, so both handles hit one cell); a batch pass adds its
// width.
obs::Counter& batch_link_blocks_counter() {
  static obs::Counter c =
      obs::MetricRegistry::global().counter("phy.link_blocks");
  return c;
}

// Effective sample size (Σw)²/Σw² recovered from the weight stream's
// Welford state: Σw = n·mean, Σw² = m2 + n·mean².
double ess_from_weights(const RunningStats& w) {
  if (w.count() == 0) return 0.0;
  const RunningStats::Raw r = w.raw();
  const double n = static_cast<double>(r.n);
  const double sum_w = n * r.mean;
  const double sum_w2 = r.m2 + n * r.mean * r.mean;
  return sum_w2 > 0.0 ? sum_w * sum_w / sum_w2 : 0.0;
}
}  // namespace

WaveformBerKernel::WaveformBerKernel(int b, unsigned mt, unsigned mr,
                                     double gamma_b)
    : modem_(make_modulator(b)),
      decoder_(StbcCode::for_antennas(mt)),
      mr_(mr) {
  COMIMO_CHECK(b >= 1 && b <= 8, "b in 1..8");
  COMIMO_CHECK(mt >= 1 && mt <= kMaxStbcTx,
               "mt outside the STBC design range");
  COMIMO_CHECK(mr >= 1, "need a receive antenna");
  const StbcCode& code = decoder_.code();
  bits_per_block_ = code.symbols_per_block() * static_cast<std::size_t>(b);
  // Per-bit received energy γ_b·N0 (unit noise) per unit ‖H‖²_F; the
  // rate-1/2 designs transmit each symbol twice, so divide by the
  // symbol weight — the same bookkeeping as testbed/coop_hop_sim.
  sym_scale_ =
      std::sqrt(static_cast<double>(b) * gamma_b / code.symbol_weight());
}

WaveformBerKernel::IsBlock WaveformBerKernel::run_block_is(
    LinkWorkspace& ws, Rng& rng, double noise_scale,
    double channel_scale) const {
  COMIMO_DCHECK(noise_scale >= 1.0, "IS noise scale must be >= 1");
  COMIMO_DCHECK(channel_scale >= 1.0, "IS channel scale must be >= 1");
  ws.bits.resize(bits_per_block_);
  for (auto& bit : ws.bits) bit = rng.bernoulli(0.5) ? 1 : 0;
  modem_->modulate_into(ws.bits, ws.symbols);
  for (auto& s : ws.symbols) s *= sym_scale_;
  const TiltedBlockEnergy energy = simulate_block_tilted(
      decoder_, ws, rng, noise_scale, 1.0 / channel_scale);
  for (auto& v : ws.estimates) v /= sym_scale_;
  modem_->demodulate_into(ws.estimates, ws.decoded);
  IsBlock out;
  out.bit_errors = count_bit_errors(ws.bits, ws.decoded);
  // Likelihood ratio of the block's draws under the nominal CN(0,1)
  // densities f versus the proposals g — noise CN(0,ν), channel
  // CN(0,1/λ) — in log space for stability:
  //   log w = N·log ν − (1 − 1/ν)·Σ|n|²  −  Nh·log λ + (λ − 1)·Σ|h|².
  const double n_samples = static_cast<double>(decoder_.code().block_length() *
                                               static_cast<std::size_t>(mr_));
  const double nh = static_cast<double>(decoder_.code().num_tx() *
                                        static_cast<std::size_t>(mr_));
  out.weight = std::exp(n_samples * std::log(noise_scale) -
                        (1.0 - 1.0 / noise_scale) * energy.noise_sq -
                        nh * std::log(channel_scale) +
                        (channel_scale - 1.0) * energy.channel_sq);
  return out;
}

void WaveformBerKernel::prepare_batch(HopBatchWorkspace& ws,
                                      std::size_t width) const {
  ws.link.configure(decoder_.code(), mr_, width, bits_per_block_);
}

std::size_t WaveformBerKernel::run_block_batch(HopBatchWorkspace& hws,
                                               Rng* rngs,
                                               std::size_t count) const {
  LinkBatchWorkspace& ws = hws.link;
  COMIMO_CHECK(count >= 1 && count <= ws.width,
               "count must fit the prepared lane width");
  const simd::BatchKernels& pinned = simd::active_kernels();
  if (count == ws.width && count == pinned.width) {
    return run_pass(ws, 0, pinned, rngs);
  }
  const simd::BatchKernels& scalar =
      *simd::kernels_for_tier(simd::Tier::kScalar);
  std::size_t errors = 0;
  for (std::size_t w = 0; w < count; ++w) {
    errors += run_pass(ws, w, scalar, rngs + w);
  }
  return errors;
}

std::size_t WaveformBerKernel::run_pass(LinkBatchWorkspace& ws,
                                        std::size_t first,
                                        const simd::BatchKernels& k,
                                        Rng* rngs) const {
  const std::size_t w_count = k.width;
  const StbcCode& code = decoder_.code();
  const std::size_t mt = code.num_tx();
  const std::size_t tt = code.block_length();
  const std::size_t kk = code.symbols_per_block();
  const std::size_t mr = mr_;
  std::uint8_t* const bits = ws.bits.data() + first * bits_per_block_;
  std::uint8_t* const decoded = ws.decoded.data() + first * bits_per_block_;

  // Source bits and modulation stay scalar per lane: bit draws consume
  // lane w's generator first, and the symbol map is a table lookup.
  // Unscaled symbols stage through ws.symbols and scatter into the SoA
  // planes.
  for (std::size_t w = 0; w < w_count; ++w) {
    std::uint8_t* lane_bits = bits + w * bits_per_block_;
    for (std::size_t i = 0; i < bits_per_block_; ++i) {
      lane_bits[i] = rngs[w].bernoulli(0.5) ? 1 : 0;
    }
    modem_->modulate_into({lane_bits, bits_per_block_}, ws.symbols);
    for (std::size_t s = 0; s < kk; ++s) {
      ws.sym_re[s * w_count + w] = ws.symbols[s].real();
      ws.sym_im[s * w_count + w] = ws.symbols[s].imag();
    }
  }
  k.scale(ws.sym_re.data(), ws.sym_im.data(), kk, sym_scale_);

  // The link itself: channel draw, STBC encode, propagate, AWGN — the
  // draw order of the scalar block, W lanes per op.
  simd::random_gaussian_fill_batch(ws.h_re.data(), ws.h_im.data(), mr * mt,
                                   w_count, rngs, 1.0);
  k.stbc_encode(code.coeff_a_flat().data(), code.coeff_b_flat().data(), tt,
                mt, kk, code.power_scale(), ws.sym_re.data(),
                ws.sym_im.data(), ws.enc_re.data(), ws.enc_im.data());
  k.multiply_transposed(ws.enc_re.data(), ws.enc_im.data(), ws.h_re.data(),
                        ws.h_im.data(), ws.rx_re.data(), ws.rx_im.data(), tt,
                        mt, mr);
  simd::add_scaled_noise_into_batch(ws.rx_re.data(), ws.rx_im.data(), tt * mr,
                                    w_count, rngs, 1.0);
  decode_demap_batch(k, code, mr, *modem_, sym_scale_, ws, decoded,
                     bits_per_block_);

  std::size_t errors = 0;
  for (std::size_t w = 0; w < w_count; ++w) {
    errors += count_bit_errors(
        {bits + w * bits_per_block_, bits_per_block_},
        {decoded + w * bits_per_block_, bits_per_block_});
  }
  batch_link_blocks_counter().add(w_count);
  return errors;
}

WaveformBerPoint measure_waveform_ber(const WaveformBerConfig& config,
                                      double gamma_b_db) {
  COMIMO_CHECK(config.blocks >= 1, "need at least one block");
  const bool adaptive_on = config.adaptive.target_rel_ci > 0.0;
  // IS runs only on the adaptive path; asked for without a CI target it
  // would silently measure an untilted point instead.
  COMIMO_CHECK(config.adaptive.is_mode == IsMode::kOff || adaptive_on,
               "importance sampling needs target_rel_ci > 0");
  const bool is_on = config.adaptive.is_mode == IsMode::kScaledNoise;
  const double nu = config.adaptive.is_noise_scale;
  const double lambda = config.adaptive.is_channel_scale;
  if (is_on) {
    // The kernel only DCHECKs its scales; a scale below 1 (or NaN)
    // would put NaN or zero weights into the estimate.
    COMIMO_CHECK(std::isfinite(nu) && nu >= 1.0,
                 "IS noise scale must be finite and >= 1");
    COMIMO_CHECK(std::isfinite(lambda) && lambda >= 1.0,
                 "IS channel scale must be finite and >= 1");
  }

  const double gamma_b = db_to_linear(gamma_b_db);
  const WaveformBerKernel kernel(config.b, config.mt, config.mr, gamma_b);
  const std::size_t bits_per_block = kernel.bits_per_block();

  // W consecutive blocks of each chunk go to one batch call.  Plain
  // points run the batch-SoA kernel, whose lanes are each bit-identical
  // to the scalar block on the same (seed, trial) stream (a chunk's
  // short last group runs at width 1); IS points run the tilted scalar
  // kernel lane by lane in trial order, so every statistic sees the
  // same observation sequence at any width.  The grouping is worker-
  // and slice-count invariant, so both give the same bits on any pool
  // and at any shard count.
  McConfig mc;
  mc.seed = config.seed;
  mc.chunk_size = config.chunk_size;
  mc.pool = config.pool;
  mc.batch_width = simd::batch_width();
  mc.shards = config.shards;
  const auto batch = [&](std::size_t, std::size_t count, Rng* rngs,
                         McAccumulator& acc) {
    if (!is_on) {
      // One hop-batch workspace per worker thread, reused across every
      // group the thread runs (no allocation at steady state).  The
      // waveform probe only exercises the long-haul planes (ws.link).
      thread_local HopBatchWorkspace ws;
      kernel.prepare_batch(ws, mc.batch_width);
      acc.count("bit_errors", kernel.run_block_batch(ws, rngs, count));
      acc.count("bits", bits_per_block * count);
      return;
    }
    // The tilted link has no SIMD batch variant (rare-event points need
    // few blocks by construction, so the batch win is small there).
    thread_local LinkWorkspace ws;
    kernel.prepare(ws);
    for (std::size_t i = 0; i < count; ++i) {
      const WaveformBerKernel::IsBlock blk =
          kernel.run_block_is(ws, rngs[i], nu, lambda);
      acc.count("bit_errors", blk.bit_errors);
      acc.count("bits", bits_per_block);
      acc.observe("is_ber", blk.weight * static_cast<double>(blk.bit_errors) /
                                static_cast<double>(bits_per_block));
      acc.observe("is_weight", blk.weight);
      // Error blocks are the only nonzero terms of the estimator: their
      // weight stream is what ESS must watch (a mis-tilt shows up as a
      // few huge-weight errors dominating it, which raw-weight ESS hides
      // behind the harmless weight spread of the error-free majority).
      if (blk.bit_errors > 0) acc.observe("is_err_weight", blk.weight);
    }
  };
  // Stopping rule (adaptive only): the raw bit-error rate for plain
  // points, the weighted per-block BER stat under IS (the raw counters
  // are tilted there and only serve as diagnostics).
  const StopRule rule = is_on ? StopRule{"is_ber", ""}
                              : StopRule{"bit_errors", "bits"};
  const McResult run =
      run_mc(config.blocks, mc, batch, McStop{config.adaptive, rule});

  WaveformBerPoint point;
  point.gamma_b_db = gamma_b_db;
  point.trials_budget = config.blocks;
  point.trials_executed = run.info.trials;
  point.checkpoints = run.checkpoints;
  point.target_met = run.target_met;
  point.rel_ci = std::isfinite(run.rel_ci) ? run.rel_ci : 0.0;

  point.bits = run.acc.counter("bits");
  point.bit_errors = run.acc.counter("bit_errors");
  point.estimate = run.acc.rate("bit_errors", "bits");
  if (is_on) {
    // Unbiased weighted estimator; the Wilson shape does not apply, so
    // the interval is the normal one around the weighted mean.
    const RunningStats& isb = run.acc.stat("is_ber");
    point.ber = isb.count() > 0 ? isb.mean() : 0.0;
    const double half =
        isb.count() >= 2
            ? confidence_z(config.adaptive.confidence) * isb.std_error()
            : 0.0;
    point.estimate.rate = point.ber;
    point.estimate.wilson_lo = std::max(0.0, point.ber - half);
    point.estimate.wilson_hi = point.ber + half;
    const RunningStats& errw = run.acc.stat("is_err_weight");
    point.ess = ess_from_weights(errw);
    point.err_blocks = errw.count();
    // ESS is a pure function of (seed, config) — deterministic domain.
    obs::MetricRegistry::global().gauge("mc.adaptive.is_ess").set(point.ess);
  } else {
    point.ber = point.bits
                    ? static_cast<double>(point.bit_errors) /
                          static_cast<double>(point.bits)
                    : 0.0;
    if (!adaptive_on) {
      const double rel =
          rate_rel_ci(point.bit_errors, point.bits, confidence_z(0.95));
      point.rel_ci = std::isfinite(rel) ? rel : 0.0;
    }
  }
  // The closed form averages Q over the per-branch SNR of the
  // total-power-normalized code (StbcCode scales by 1/√mt), so the
  // per-branch per-bit SNR it sees is γ_b/mt — the same convention
  // tests/test_stbc.cpp pins against the 2×1 Alamouti curve.
  point.analytic =
      ber_mqam_rayleigh_mimo(config.b, gamma_b / config.mt, config.mt,
                             config.mr);
  point.info = run.info;
  if (obs::enabled() && run.info.wall_s > 0.0) {
    // Per-shape kernel throughput.  Registration here is cold (once per
    // measurement, thousands of blocks each); timing is runtime domain.
    const std::string name = "phy.blocks_per_sec." +
                             std::to_string(config.mt) + "x" +
                             std::to_string(config.mr) + ".b" +
                             std::to_string(config.b);
    obs::MetricRegistry::global()
        .gauge(name, obs::Domain::kRuntime)
        .set(static_cast<double>(point.trials_executed) / run.info.wall_s);
  }
  return point;
}

std::vector<WaveformBerPoint> waveform_ber_curve(
    const WaveformBerConfig& config, const std::vector<double>& gamma_b_db) {
  std::vector<WaveformBerPoint> curve;
  curve.reserve(gamma_b_db.size());
  for (std::size_t i = 0; i < gamma_b_db.size(); ++i) {
    // Each point gets its own stream family so curve points stay
    // independent of the grid shape.
    WaveformBerConfig point_cfg = config;
    point_cfg.seed = config.seed + 0x9E3779B97F4A7C15ULL * (i + 1);
    curve.push_back(measure_waveform_ber(point_cfg, gamma_b_db[i]));
  }
  return curve;
}

}  // namespace comimo
