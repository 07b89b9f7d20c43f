// Precision-targeted Monte-Carlo: the stopping rules of run_mc.
//
// A fixed-trial sweep spends the same budget at every operating point,
// so deep-waterfall points (BER ≲ 1e-5) burn millions of trials to
// resolve a handful of bit errors while high-BER points finish in
// milliseconds.  Given a target (McStop, mc/engine.h) the driver
// instead runs its chunk partition in checkpoint rounds and stops as
// soon as a named statistic's confidence interval hits a relative-width
// target.  This header holds what that decision reads: the target, the
// rule, and the interval formulas.  The checkpoint schedule is a pure
// function of the chunk count and the rule reads only the fold of the
// chunks executed so far, so early stopping keeps the engine's
// determinism contract (mc/engine.h).
//
// Rare-event tier: phy/ber_sweep.h layers importance sampling (scaled-
// variance noise with per-trial likelihood weights) on top of this
// driver; see WaveformBerConfig::adaptive and DESIGN.md §9.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "comimo/mc/accumulator.h"

namespace comimo {

/// Importance-sampling mode for the rare-event BER tier (consumed by
/// phy/ber_sweep.h; the engine-level driver itself is estimator
/// agnostic).
enum class IsMode {
  kOff = 0,
  /// Scaled-variance tilting with per-trial likelihood weights: AWGN is
  /// drawn from CN(0, ν) instead of CN(0, 1) (ν = is_noise_scale ≥ 1)
  /// and the Rayleigh channel from CN(0, 1/λ) (λ = is_channel_scale ≥
  /// 1), weighting each block by the exact density ratio
  ///   w = ν^N·exp(−(1 − 1/ν)·Σ|n|²) · λ^(−Nh)·exp((λ − 1)·Σ|h|²)
  /// so errors occur ~p_tilted/p as often while the weighted estimator
  /// stays unbiased.  In a diversity link the high-SNR errors are
  /// FADE-dominated, not noise-dominated: tilt the channel (λ > 1,
  /// over-sampling deep fades) for the large rare-event gains; a pure
  /// noise tilt samples the wrong rare event and buys little there
  /// (measured in BENCH_adaptive_mc.json's history — see
  /// EXPERIMENTS.md).  Either scale at 1 disables that half of the
  /// tilt; both at 1 reproduces the plain path bit for bit.
  kScaledNoise = 1,
};

struct AdaptiveConfig {
  /// Stop when the stopping statistic's CI half-width divided by its
  /// point estimate is ≤ this.  <= 0 disables adaptive stopping: the
  /// driver runs the whole trial budget.
  double target_rel_ci = 0.0;
  /// Two-sided confidence level for the CI (z = q_inverse((1-c)/2)).
  double confidence = 0.95;
  /// A counter-rate stopping rule is not trusted below this many
  /// numerator events regardless of the CI formula (the normal
  /// approximation is garbage at a handful of events).
  std::size_t min_events = 16;
  /// Chunks per checkpoint round; 0 picks max(1, chunks / 32) — a pure
  /// function of the chunk count, never of the worker count.
  std::size_t checkpoint_every = 0;
  /// Rare-event importance sampling (phy/ber_sweep.h); anything but
  /// kOff requires target_rel_ci > 0.
  IsMode is_mode = IsMode::kOff;
  /// Noise-variance scale ν ≥ 1 for IsMode::kScaledNoise (1 = noise
  /// untilted).
  double is_noise_scale = 2.0;
  /// Fade tilt λ ≥ 1 for IsMode::kScaledNoise: the channel is drawn
  /// from CN(0, 1/λ), over-sampling the deep fades that dominate
  /// high-SNR errors in a diversity link (1 = channel untilted).
  double is_channel_scale = 1.0;
};

/// What the stopping rule watches.  With a non-empty `denominator` the
/// rule is the counter rate stat/denominator (CI half-width
/// z·sqrt((1−p)/(p·den)) relative to p — the BER shape); otherwise
/// `stat` names a RunningStats and the rule is z·std_error/|mean| (the
/// weighted-estimator shape the IS tier uses).
struct StopRule {
  std::string stat;
  std::string denominator;
};

/// z-value of the two-sided interval at the given confidence (0.95 →
/// 1.9599...).
[[nodiscard]] double confidence_z(double confidence);

/// The checkpoint schedule: chunks per round for a partition of `chunks`
/// chunks.  Pure function of its arguments.
[[nodiscard]] std::size_t resolve_checkpoint_every(std::size_t chunks,
                                                   std::size_t requested);

/// Relative CI half-width z·sqrt((1−p)/(num)) of a counter rate
/// num/den; +inf when not estimable (zero counts, p >= 1).
[[nodiscard]] double rate_rel_ci(std::uint64_t num, std::uint64_t den,
                                 double z);

/// The stopping rule evaluated on a folded accumulator; +inf while not
/// estimable (fewer than min_events numerator events for a rate rule,
/// fewer than 2 observations or a zero mean for a stat rule).
[[nodiscard]] double stop_rel_ci(const McAccumulator& acc,
                                 const StopRule& rule, double z,
                                 std::size_t min_events);

}  // namespace comimo
