#include "comimo/mc/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/obs/trace.h"

namespace comimo {

namespace {

// Engine-level observability (cold registration, hot no-op when
// disabled).  Run, trial, chunk and checkpoint totals are pure
// functions of (seed, config) — deterministic domain; timing is not.
struct EngineObs {
  obs::Counter trials = obs::MetricRegistry::global().counter("mc.trials");
  obs::Counter chunks = obs::MetricRegistry::global().counter("mc.chunks");
  obs::Counter runs = obs::MetricRegistry::global().counter("mc.runs");
  obs::Gauge shard_count =
      obs::MetricRegistry::global().gauge("mc.shard_count");
  obs::Histogram chunk_wall_s = obs::MetricRegistry::global().histogram(
      "mc.chunk_wall_s", obs::Domain::kRuntime);
  obs::Gauge trials_per_sec = obs::MetricRegistry::global().gauge(
      "mc.trials_per_sec", obs::Domain::kRuntime);
};

EngineObs& engine_obs() {
  static EngineObs o;
  return o;
}

// Registered on the first run with a stop rule, so runs without one
// export no mc.adaptive.* entries.
struct AdaptiveObs {
  obs::Counter runs =
      obs::MetricRegistry::global().counter("mc.adaptive.runs");
  obs::Counter checkpoints =
      obs::MetricRegistry::global().counter("mc.adaptive.checkpoints");
  obs::Counter trials =
      obs::MetricRegistry::global().counter("mc.adaptive.trials");
  obs::Counter trials_saved =
      obs::MetricRegistry::global().counter("mc.adaptive.trials_saved");
  obs::Gauge rel_ci =
      obs::MetricRegistry::global().gauge("mc.adaptive.rel_ci");
};

AdaptiveObs& adaptive_obs() {
  static AdaptiveObs o;
  return o;
}

/// The chunk executor: runs chunks [lo, hi) of the partition of
/// [0, trials) into `chunk`-trial chunks on `pool`, handing `batch` up
/// to `width` consecutive trials at a time, and returns one accumulator
/// per chunk in ascending ordinal.
std::vector<McAccumulator> run_chunks(std::size_t trials, std::size_t chunk,
                                      std::uint64_t seed, std::size_t width,
                                      const McBatchFn& batch, std::size_t lo,
                                      std::size_t hi, ThreadPool& pool) {
  std::vector<McAccumulator> accs(hi - lo);
  const obs::Histogram& chunk_wall_s = engine_obs().chunk_wall_s;
  parallel_for(pool, hi - lo, [&](std::size_t idx) {
    // Chunk-ordinal shard scope (global ordinal, whatever the slice):
    // deterministic metrics the trial code observes (per-hop BER,
    // retries, backoff) merge in chunk order — the same discipline as
    // the McAccumulator fold — so the exported aggregates are worker-
    // and slice-count invariant.
    const std::size_t c = lo + idx;
    const obs::ObsShard shard(c);
    const obs::SpanTimer span("mc.chunk", chunk_wall_s);
    const std::size_t end = std::min(trials, (c + 1) * chunk);
    // One generator per trial, materialized per group; Rng has no
    // default constructor, so the group's streams live in a vector
    // whose capacity is reused across groups (one allocation per chunk,
    // outside any per-block zero-alloc window).
    std::vector<Rng> rngs;
    rngs.reserve(width);
    for (std::size_t t = c * chunk; t < end; t += width) {
      const std::size_t count = std::min(width, end - t);
      rngs.clear();
      for (std::size_t i = 0; i < count; ++i) rngs.emplace_back(seed, t + i);
      batch(t, count, rngs.data(), accs[idx]);
    }
  });
  return accs;
}

}  // namespace

std::size_t resolve_chunk_size(std::size_t trials,
                               std::size_t chunk_size) noexcept {
  if (chunk_size > 0) return chunk_size;
  // At most 1024 chunks: enough parallel slack for any realistic core
  // count while keeping the fold chain short.  Depends only on the
  // trial count, never on the executing pool.
  return std::max<std::size_t>(1, (trials + 1023) / 1024);
}

McResult run_mc(std::size_t trials, const McConfig& config,
                const McBatchFn& batch, const McStop& stop) {
  COMIMO_CHECK(batch != nullptr, "null batch function");
  COMIMO_CHECK(config.shards >= 1, "need at least one shard");
  const bool adaptive = stop.adaptive.target_rel_ci > 0.0;
  COMIMO_CHECK(!adaptive || !stop.rule.stat.empty(),
               "adaptive stopping requires a stop stat");
  const double z = adaptive ? confidence_z(stop.adaptive.confidence) : 0.0;
  const std::size_t width = std::clamp<std::size_t>(config.batch_width, 1, 8);
  ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();

  McResult out;
  out.info.threads = pool.size();
  if (adaptive) out.rel_ci = std::numeric_limits<double>::infinity();
  if (trials == 0) return out;
  EngineObs& eobs = engine_obs();
  eobs.runs.add();
  eobs.shard_count.set(static_cast<double>(config.shards));

  const std::size_t chunk = resolve_chunk_size(trials, config.chunk_size);
  const std::size_t chunks = (trials + chunk - 1) / chunk;
  // Without a stop rule the whole partition is one round.
  const std::size_t every =
      adaptive
          ? resolve_checkpoint_every(chunks, stop.adaptive.checkpoint_every)
          : chunks;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t next = 0;
  while (next < chunks) {
    const std::size_t hi = std::min(chunks, next + every);
    // Rounds arrive in ascending window order, a round's slices in
    // ascending order and each slice's chunks in ascending ordinal, so
    // the fold is the same sequence at every thread count, slice count
    // and checkpoint schedule.  Slices past the window's chunk count
    // would be empty, so there are at most n.
    const std::size_t n = hi - next;
    const std::size_t slices = std::min(config.shards, n);
    for (std::size_t s = 0; s < slices; ++s) {
      for (const McAccumulator& acc :
           run_chunks(trials, chunk, config.seed, width, batch,
                      next + n * s / slices, next + n * (s + 1) / slices,
                      pool)) {
        out.acc.merge(acc);
      }
    }
    next = hi;
    if (!adaptive) continue;
    ++out.checkpoints;
    out.rel_ci =
        stop_rel_ci(out.acc, stop.rule, z, stop.adaptive.min_events);
    if (out.rel_ci <= stop.adaptive.target_rel_ci) {
      out.target_met = true;
      break;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();

  out.info.chunks = next;
  out.info.trials = std::min(trials, next * chunk);
  out.info.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.info.trials_per_sec =
      out.info.wall_s > 0.0
          ? static_cast<double>(out.info.trials) / out.info.wall_s
          : 0.0;
  eobs.trials.add(out.info.trials);
  eobs.chunks.add(out.info.chunks);
  eobs.trials_per_sec.set(out.info.trials_per_sec);
  if (adaptive) {
    AdaptiveObs& aobs = adaptive_obs();
    aobs.runs.add();
    aobs.checkpoints.add(out.checkpoints);
    aobs.trials.add(out.info.trials);
    aobs.trials_saved.add(trials - out.info.trials);
    if (std::isfinite(out.rel_ci)) aobs.rel_ci.set(out.rel_ci);
  }
  return out;
}

McResult run_trials(
    std::size_t trials, const McConfig& config,
    const std::function<void(std::size_t, Rng&, McAccumulator&)>& trial) {
  COMIMO_CHECK(trial != nullptr, "null trial function");
  McConfig scalar = config;
  scalar.batch_width = 1;
  return run_mc(trials, scalar,
                [&trial](std::size_t t, std::size_t, Rng* rng,
                         McAccumulator& acc) { trial(t, *rng, acc); });
}

}  // namespace comimo
