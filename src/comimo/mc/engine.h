// The Monte-Carlo sweep engine: one driver, run_mc.
//
// run_mc partitions [0, trials) into fixed-size chunks, executes the
// chunks across a ThreadPool in groups of up to McConfig::batch_width
// consecutive trials, and folds one McAccumulator per chunk in
// ascending chunk order.  The determinism contract:
//
//   * every trial derives all of its randomness from Rng(seed, trial) —
//     a counter-based stream, never a shared generator — so a trial's
//     result is a pure function of (seed, trial index);
//   * the chunk partition depends only on (trials, chunk_size), never on
//     the worker count, the batch width, the shard count or the stop
//     rule, and chunk accumulators fold in ascending chunk ordinal;
//   * therefore the folded accumulator is bit-identical on 1 or N
//     threads, over 1 or K slices, for any pool and any scheduling —
//     asserted by tests/test_mc_engine.cpp.
//
// The driver runs the partition in checkpoint rounds.  Without a stop
// rule there is one round covering every chunk.  With one (McStop,
// mc/adaptive.h) each round is a window of `checkpoint_every` chunks
// and the rule is evaluated only on the fold of every chunk executed so
// far, at window boundaries — a pure function of (seed, config), so the
// stop decision, and with it the executed chunk set, is thread- and
// shard-count invariant.  Folding per-chunk accumulators (never round
// partials: the Welford merge is not bitwise associative) from an empty
// accumulator makes a run that exhausts its budget bit-identical to the
// run without a stop rule.  With McConfig::shards > 1 each round is
// cut into contiguous slices that run one after another on the pool;
// their per-chunk accumulators fold in the same order.
//
// A trial that needs several independent streams splits its Rng by
// drawing sub-seeds (rng.next()) or by constructing Rng(sub_seed, tag)
// from them; it must never touch state outside its accumulator.
#pragma once

#include <cstdint>
#include <functional>

#include "comimo/common/parallel.h"
#include "comimo/mc/accumulator.h"
#include "comimo/mc/adaptive.h"
#include "comimo/numeric/rng.h"

namespace comimo {

struct McConfig {
  std::uint64_t seed = 1;
  /// Trials per chunk; 0 picks ceil(trials / 1024) (at most 1024
  /// chunks) — a function of the trial count only, never of the worker
  /// count.  Changing chunk_size regroups the Welford reduction and may
  /// move folded moments by an ulp; counters are exact for every
  /// chunking.
  std::size_t chunk_size = 0;
  /// Pool to execute on; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Trials per batch-function call, clamped to [1, 8].  Groups never
  /// straddle a chunk boundary, so a chunk's trailing group may be
  /// narrower.  The grouping is a pure function of the chunk bounds and
  /// the width, so a batch function whose per-trial results match the
  /// scalar trial's gives the width-1 run's bits at every width.
  std::size_t batch_width = 1;
  /// Slices each round is cut into: with k = min(shards, n), slice s
  /// is [lo + n·s/k, lo + n·(s+1)/k) of the round's n-chunk window
  /// [lo, lo + n), and the slices run one after another on the pool.
  /// The folded result is bit-identical at every count; more slices
  /// only add a barrier each.
  std::size_t shards = 1;
};

struct McRunInfo {
  std::size_t trials = 0;  ///< trials executed
  std::size_t chunks = 0;  ///< chunks executed
  unsigned threads = 0;
  double wall_s = 0.0;
  double trials_per_sec = 0.0;
};

struct McResult {
  /// Fold of every executed chunk's accumulator, in ascending ordinal.
  McAccumulator acc;
  McRunInfo info;
  /// Stop-rule evaluations performed (0 without a stop rule).
  std::size_t checkpoints = 0;
  /// True when the stop rule ended the run before the budget ran out.
  bool target_met = false;
  /// Relative CI half-width of the stop rule at the last checkpoint
  /// (+inf while not estimable; 0 without a stop rule).
  double rel_ci = 0.0;
};

/// Optional precision target for run_mc.  adaptive.target_rel_ci <= 0
/// (the default) runs the whole budget; otherwise the run stops at the
/// first checkpoint whose `rule` CI meets the target.  The importance-
/// sampling fields of AdaptiveConfig are the batch function's business
/// (phy/ber_sweep.h) and are ignored here.
struct McStop {
  AdaptiveConfig adaptive;
  StopRule rule;
};

/// `batch(first_trial, count, rngs, acc)` runs trials [first_trial,
/// first_trial + count); rngs[i] is the stream Rng(seed, first_trial +
/// i).  It must be safe to call concurrently for disjoint trial ranges
/// and must draw randomness only from those streams.
using McBatchFn =
    std::function<void(std::size_t, std::size_t, Rng*, McAccumulator&)>;

/// The driver: runs up to `trials` trials through `batch` and returns
/// the folded accumulator with the run's record.
[[nodiscard]] McResult run_mc(std::size_t trials, const McConfig& config,
                              const McBatchFn& batch,
                              const McStop& stop = {});

/// run_mc at batch width 1: `trial(trial_index, rng, acc)` runs every
/// index in [0, trials) on its stream Rng(config.seed, trial_index).
[[nodiscard]] McResult run_trials(
    std::size_t trials, const McConfig& config,
    const std::function<void(std::size_t, Rng&, McAccumulator&)>& trial);

/// The chunk partition run_mc uses: resolved chunk size for a given
/// trial count (exposed so tests can cross-check the contract).
[[nodiscard]] std::size_t resolve_chunk_size(std::size_t trials,
                                             std::size_t chunk_size) noexcept;

}  // namespace comimo
