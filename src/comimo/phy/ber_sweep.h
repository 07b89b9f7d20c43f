// Waveform-level Monte-Carlo BER curves on the mc/ sweep engine.
//
// Each trial is one orthogonal-STBC block over a fresh i.i.d. Rayleigh
// mt×mr channel: MQAM symbols scaled to the requested per-branch
// per-bit SNR, exact ML decode, bit errors counted.  The measured curve
// cross-checks the closed form of phy/ber.h (eqs. (5)–(6)) — and the
// trial throughput of this sweep is what bench/mc_engine_speedup uses
// to measure multi-core scaling, because every trial is independent by
// construction (randomness derived from (seed, trial index) only).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comimo/mc/adaptive.h"
#include "comimo/mc/engine.h"
#include "comimo/numeric/stats.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/link_workspace.h"

namespace comimo {

struct HopBatchWorkspace;

struct WaveformBerConfig {
  int b = 2;            ///< bits per symbol (1..8)
  unsigned mt = 2;      ///< cooperative transmit antennas (1..4)
  unsigned mr = 2;      ///< receive antennas
  std::size_t blocks = 4000;  ///< STBC blocks (= engine trials) per point
  std::uint64_t seed = 1;
  std::size_t chunk_size = 0;  ///< engine shard size; 0 = auto
  ThreadPool* pool = nullptr;  ///< null = shared pool
  /// Slices each chunk round is cut into (McConfig::shards); the
  /// slices run one after another on `pool`, bit-identical to one slice
  /// at any count.
  std::size_t shards = 1;
  /// Precision-targeted stopping (mc/adaptive.h).  target_rel_ci > 0
  /// runs the measurement in checkpoint rounds against `blocks` as the
  /// trial budget, stopping once the BER's relative CI half-width hits
  /// the target; is_mode == IsMode::kScaledNoise additionally tilts the
  /// noise (CN(0, ν)) and/or the fading (CN(0, 1/λ)) with per-block
  /// likelihood weights, so deep-waterfall points resolve with orders
  /// of magnitude fewer blocks (tilt the CHANNEL for high-SNR diversity
  /// links — see IsMode).  IS requires target_rel_ci > 0:
  /// measure_waveform_ber throws InvalidArgument for is_mode != kOff
  /// without a CI target.  Results stay bit-identical at any thread
  /// count and across `shards` for a fixed checkpoint schedule.
  AdaptiveConfig adaptive;
};

struct WaveformBerPoint {
  double gamma_b_db = 0.0;  ///< per-branch per-bit SNR γ_b [dB]
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  double ber = 0.0;
  RateEstimate estimate;  ///< Wilson 95% interval
  double analytic = 0.0;  ///< ber_mqam_rayleigh_mimo at the same point
  McRunInfo info;
  /// Adaptive-stopping record (trials_executed == blocks and
  /// target_met == false on the fixed-trial path).
  std::size_t trials_budget = 0;
  std::size_t trials_executed = 0;
  std::size_t checkpoints = 0;
  bool target_met = false;
  /// Relative CI half-width of the stopping statistic at the end of the
  /// run (also filled on the fixed path, from the rate interval).
  double rel_ci = 0.0;
  /// Importance-sampling effective sample size (Σw)²/Σw² over the
  /// weights of ERROR-carrying blocks; 0 without IS.  Error blocks are
  /// the only terms of the estimator, so this is the quantity that
  /// collapses when a mis-tilt lets a few huge-weight errors dominate —
  /// raw-weight ESS is meaningless under a proposal that deliberately
  /// inflates a rare region.
  double ess = 0.0;
  /// Number of error-carrying blocks (the denominator ess is relative
  /// to); 0 without IS.
  std::size_t err_blocks = 0;
};

/// The per-block waveform BER trial packaged as a reusable kernel.
/// Construction fixes (b, mt, mr, γ_b) and builds the modem and ML
/// decoder once.  run_block_batch() runs blocks through the batch-SoA
/// link on a caller-owned HopBatchWorkspace; run_block_is() runs one
/// importance-sampled block on a LinkWorkspace.  A workspace reused
/// across blocks makes the steady-state loop allocation-free
/// (bench/perf_kernels counts this).
class WaveformBerKernel {
 public:
  /// gamma_b is the *linear* per-branch per-bit SNR: finite and ≥ 0.
  WaveformBerKernel(int b, unsigned mt, unsigned mr, double gamma_b);

  /// Shapes `ws` for this kernel; call before run_block_is() whenever
  /// the workspace may have last served a different shape.
  void prepare(LinkWorkspace& ws) const { ws.configure(decoder_.code(), mr_); }

  /// Importance-sampled block: draw source bits, modulate, simulate the
  /// link with the AWGN drawn from CN(0, noise_scale) and the channel
  /// from CN(0, 1/channel_scale), decode, count errors.  The source and
  /// decoded bits stay in ws.bits/ws.decoded.  Returns the raw (tilted)
  /// bit-error count plus the block's likelihood weight w = f/g =
  ///   ν^N·exp(−(1 − 1/ν)·Σ|n|²) · λ^(−Nh)·exp((λ − 1)·Σ|h|²)
  /// over the N = T·mr noise samples and Nh = mt·mr channel entries;
  /// the unbiased BER estimator is the mean of w·errors/bits_per_block
  /// across blocks.  Both scales at 1 give w == 1 and draw the words of
  /// an untilted block, so it is also the scalar reference every batch
  /// lane is held to.
  struct IsBlock {
    std::size_t bit_errors = 0;
    double weight = 1.0;
  };
  [[nodiscard]] IsBlock run_block_is(LinkWorkspace& ws, Rng& rng,
                                     double noise_scale,
                                     double channel_scale) const;

  /// Shapes the link planes of `ws` for this kernel at `width` lanes
  /// (normally simd::batch_width()).  The hop workspace is the one
  /// per-thread arena type of every batch call site.
  void prepare_batch(HopBatchWorkspace& ws, std::size_t width) const;

  /// `count` blocks (1 ≤ count ≤ the prepared width), one Rng per lane
  /// (rngs[0..count)).  Returns the total bit-error count; per-lane
  /// source/decoded bits stay lane-major in ws.link.bits/decoded.  A
  /// count that fills the prepared width, when that width is the pinned
  /// table's, runs as one pass on the pinned table; any other count
  /// (the tail of a Monte-Carlo chunk, a workspace prepared at another
  /// width) runs the same body lane by lane at width 1 on the scalar
  /// table.  Noise is certified (link_batch.h): a lane whose decisions
  /// the approximate noise cannot certify reruns at width 1 with exact
  /// noise.  Lane w is bit-identical to run_block_is(ws', rngs[w], 1, 1),
  /// and leaves rngs[w] where that call would.
  [[nodiscard]] std::size_t run_block_batch(HopBatchWorkspace& ws, Rng* rngs,
                                            std::size_t count) const;

  [[nodiscard]] std::size_t bits_per_block() const noexcept {
    return bits_per_block_;
  }
  [[nodiscard]] const StbcDecoder& decoder() const noexcept {
    return decoder_;
  }

 private:
  /// One pass of k.width blocks over lanes [first, first + k.width) of
  /// the lane-major bit staging, drawing from rngs[0..k.width).  With
  /// `exact`, noise is libm Box–Muller and nothing is certified.
  std::size_t run_pass(LinkBatchWorkspace& ws, std::size_t first,
                       const simd::BatchKernels& k, Rng* rngs,
                       bool exact) const;

  std::unique_ptr<Modulator> modem_;
  DecisionEdges edges_;
  StbcDecoder decoder_;
  unsigned mr_;
  std::size_t bits_per_block_;
  double sym_scale_;
};

/// One point of the curve.  γ_b is the paper's per-branch per-bit SNR
/// per unit ‖H‖²_F (γ_b = ē_b/(N0·mt)).
[[nodiscard]] WaveformBerPoint measure_waveform_ber(
    const WaveformBerConfig& config, double gamma_b_db);

/// The full curve over a γ_b grid.
[[nodiscard]] std::vector<WaveformBerPoint> waveform_ber_curve(
    const WaveformBerConfig& config, const std::vector<double>& gamma_b_db);

}  // namespace comimo
