// The mc/ sweep engine's determinism contract.
//
// The engine promises the merged accumulator is a pure function of
// (seed, trials, chunk_size): the worker count changes only the wall
// clock.  These tests run identical sweeps on pools of different sizes
// and demand *bitwise* equality, exercise the chunking and merge
// algebra, and pin the ported simulators (waveform BER, cooperative
// hop, lifetime/resilience ensembles) to the same invariance.
#include "comimo/mc/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "comimo/mc/accumulator.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/lifetime.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/resilience/resilient_sim.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {
namespace {

// A trial with several named counters and observations, all derived
// from the per-trial Rng stream.
void mixed_trial(std::size_t t, Rng& rng, McAccumulator& acc) {
  acc.count("trials");
  if (rng.bernoulli(0.3)) acc.count("hits");
  acc.observe("gauss", rng.complex_gaussian().real());
  acc.observe("index", static_cast<double>(t));
}

TEST(McEngine, ThreadCountInvarianceIsBitwise) {
  McResult ref;
  {
    ThreadPool pool(1);
    McConfig cfg;
    cfg.seed = 7;
    cfg.pool = &pool;
    ref = run_trials(1000, cfg, mixed_trial);
  }
  for (const unsigned workers : {2u, 3u, 8u}) {
    ThreadPool pool(workers);
    McConfig cfg;
    cfg.seed = 7;
    cfg.pool = &pool;
    const McResult run = run_trials(1000, cfg, mixed_trial);
    // operator== compares doubles bitwise through RunningStats.
    EXPECT_TRUE(run.acc == ref.acc) << workers << " workers diverged";
  }
  EXPECT_EQ(ref.acc.counter("trials"), 1000u);
  EXPECT_DOUBLE_EQ(ref.acc.stat("index").mean(), 999.0 / 2.0);
}

TEST(McEngine, ChunkSizeKeepsCountersExact) {
  // Changing chunk_size regroups the Welford reduction (moments may move
  // by an ulp) but counters are integer sums — exact for any chunking.
  std::vector<McResult> runs;
  for (const std::size_t chunk : {1u, 7u, 128u, 1000u}) {
    McConfig cfg;
    cfg.seed = 11;
    cfg.chunk_size = chunk;
    runs.push_back(run_trials(1000, cfg, mixed_trial));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].acc.counter("trials"), runs[0].acc.counter("trials"));
    EXPECT_EQ(runs[i].acc.counter("hits"), runs[0].acc.counter("hits"));
    EXPECT_NEAR(runs[i].acc.stat("gauss").mean(),
                runs[0].acc.stat("gauss").mean(),
                1e-12 * std::abs(runs[0].acc.stat("gauss").mean()) + 1e-15);
    EXPECT_NEAR(runs[i].acc.stat("gauss").variance(),
                runs[0].acc.stat("gauss").variance(),
                1e-12 * runs[0].acc.stat("gauss").variance() + 1e-15);
  }
}

TEST(McEngine, SameChunkSizeSameResultAnyPool) {
  // With chunk_size fixed, even the moments are bit-identical — the
  // merge order is the chunk order, not the completion order.
  McConfig a;
  a.seed = 3;
  a.chunk_size = 64;
  const McResult ra = run_trials(500, a, mixed_trial);
  ThreadPool pool(4);
  McConfig b = a;
  b.pool = &pool;
  const McResult rb = run_trials(500, b, mixed_trial);
  EXPECT_TRUE(ra.acc == rb.acc);
}

TEST(McAccumulatorTest, MergeCountersAreAssociative) {
  McAccumulator a, b, c;
  a.count("n", 3);
  b.count("n", 5);
  c.count("n", 7);
  b.count("only_b", 2);

  McAccumulator left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  McAccumulator bc = b;     // a + (b + c)
  bc.merge(c);
  McAccumulator right = a;
  right.merge(bc);
  EXPECT_EQ(left.counter("n"), 15u);
  EXPECT_EQ(left.counter("n"), right.counter("n"));
  EXPECT_EQ(left.counter("only_b"), right.counter("only_b"));
}

TEST(McAccumulatorTest, MergeMomentsAssociativeToUlp) {
  Rng rng(42, 0);
  McAccumulator a, b, c;
  for (int i = 0; i < 100; ++i) a.observe("x", rng.complex_gaussian().real());
  for (int i = 0; i < 37; ++i) b.observe("x", rng.complex_gaussian().real());
  for (int i = 0; i < 211; ++i) c.observe("x", rng.complex_gaussian().real());

  McAccumulator left = a;
  left.merge(b);
  left.merge(c);
  McAccumulator bc = b;
  bc.merge(c);
  McAccumulator right = a;
  right.merge(bc);

  EXPECT_EQ(left.stat("x").count(), right.stat("x").count());
  EXPECT_NEAR(left.stat("x").mean(), right.stat("x").mean(), 1e-14);
  EXPECT_NEAR(left.stat("x").variance(), right.stat("x").variance(), 1e-13);
  EXPECT_DOUBLE_EQ(left.stat("x").min(), right.stat("x").min());
  EXPECT_DOUBLE_EQ(left.stat("x").max(), right.stat("x").max());
}

TEST(McAccumulatorTest, MergeWithEmptyIsIdentity) {
  McAccumulator a;
  a.count("n", 9);
  a.observe("x", 1.5);
  a.observe("x", -0.5);
  const McAccumulator before = a;
  a.merge(McAccumulator{});
  EXPECT_TRUE(a == before);
  McAccumulator empty;
  empty.merge(before);
  EXPECT_TRUE(empty == before);
}

TEST(McAccumulatorTest, RateEstimateFromCounters) {
  McAccumulator acc;
  acc.count("errors", 25);
  acc.count("bits", 1000);
  const RateEstimate r = acc.rate("errors", "bits");
  EXPECT_DOUBLE_EQ(r.rate, 0.025);
  EXPECT_GT(r.wilson_hi, r.rate);
  EXPECT_LT(r.wilson_lo, r.rate);
  const RateEstimate zero = acc.rate("errors", "never_counted");
  EXPECT_DOUBLE_EQ(zero.rate, 0.0);
}

TEST(McEngine, ResolveChunkSizeContract) {
  // Explicit sizes pass through; 0 = at most 1024 shards, at least one
  // trial per shard — a function of the trial count only.
  EXPECT_EQ(resolve_chunk_size(1000, 64), 64u);
  EXPECT_EQ(resolve_chunk_size(10, 0), 1u);
  EXPECT_EQ(resolve_chunk_size(1024, 0), 1u);
  EXPECT_EQ(resolve_chunk_size(2048, 0), 2u);
  EXPECT_EQ(resolve_chunk_size(1'000'000, 0),
            (1'000'000 + 1023) / 1024);
  EXPECT_GE(resolve_chunk_size(0, 0), 1u);
}

TEST(McEngine, ZeroTrialsYieldsEmptyAccumulator) {
  McConfig cfg;
  const McResult run = run_trials(
      0, cfg, [](std::size_t, Rng&, McAccumulator&) { FAIL(); });
  EXPECT_EQ(run.info.trials, 0u);
  EXPECT_TRUE(run.acc == McAccumulator{});
}

TEST(McEngine, TrialRngIsTheTrialIndexStream) {
  // The engine hands trial t the stream Rng(seed, t) — a pure function
  // of the trial index, so any trial can be replayed in isolation.
  McConfig cfg;
  cfg.seed = 99;
  std::vector<std::uint64_t> seen(8);
  (void)run_trials(8, cfg,
                   [&](std::size_t t, Rng& rng, McAccumulator&) {
                     seen[t] = rng.next();
                   });
  for (std::size_t t = 0; t < seen.size(); ++t) {
    Rng replay(99, t);
    EXPECT_EQ(seen[t], replay.next()) << "trial " << t;
  }
}

TEST(McEngine, NestedRunTrialsDegradesToSerial) {
  // A trial that itself calls run_trials on the same pool must complete
  // (the inner sweep runs inline on the worker) and stay deterministic.
  ThreadPool pool(2);
  McConfig outer;
  outer.seed = 5;
  outer.pool = &pool;
  const McResult nested = run_trials(
      8, outer, [&](std::size_t t, Rng&, McAccumulator& acc) {
        McConfig inner;
        inner.seed = 100 + t;
        inner.pool = &pool;
        const McResult in = run_trials(
            16, inner, [](std::size_t, Rng& rng, McAccumulator& a) {
              a.observe("x", rng.complex_gaussian().real());
            });
        acc.observe("inner_mean", in.acc.stat("x").mean());
      });
  McConfig serial_cfg;
  serial_cfg.seed = 5;
  ThreadPool one(1);
  serial_cfg.pool = &one;
  const McResult serial = run_trials(
      8, serial_cfg, [&](std::size_t t, Rng&, McAccumulator& acc) {
        McConfig inner;
        inner.seed = 100 + t;
        inner.pool = &one;
        const McResult in = run_trials(
            16, inner, [](std::size_t, Rng& rng, McAccumulator& a) {
              a.observe("x", rng.complex_gaussian().real());
            });
        acc.observe("inner_mean", in.acc.stat("x").mean());
      });
  EXPECT_TRUE(nested.acc == serial.acc);
}

// ---------------------------------------------------------------------
// Shards: chunk-range slices + ordinal-ordered fold.
// ---------------------------------------------------------------------

TEST(McEngineShards, ManualShardFoldIsBitwiseEqualToUnsharded) {
  // With k = min(K, n) slices, slice s is [lo + n·s/k, lo + n·(s+1)/k)
  // of each round's n-chunk window [lo, lo + n); the slices run one
  // after another on the pool and the driver folds their per-chunk
  // accumulators in order.  Every trial counts its own index, so the
  // windowed, sliced fold must cover [0, trials) with no gap and no
  // overlap and reproduce the single-round Welford fold bitwise —
  // including more shards than a 3-chunk window has chunks.
  const std::size_t trials = 300;
  const McBatchFn indexed = [](std::size_t first, std::size_t count,
                               Rng* rngs, McAccumulator& acc) {
    for (std::size_t i = 0; i < count; ++i) {
      mixed_trial(first + i, rngs[i], acc);
      acc.count("t" + std::to_string(first + i));
    }
  };
  McConfig base;
  base.seed = 21;
  base.chunk_size = 16;  // 19 chunks: ragged last chunk and last window
  const McResult want = run_mc(trials, base, indexed);
  ASSERT_EQ(want.info.chunks, 19u);
  for (std::size_t t = 0; t < trials; ++t) {
    ASSERT_EQ(want.acc.counter("t" + std::to_string(t)), 1u) << "trial " << t;
  }
  ASSERT_EQ(want.acc.counter_names().size(), trials + 2);  // + trials, hits
  McStop windows;
  windows.adaptive.target_rel_ci = 1e-12;  // never met: every window runs
  windows.adaptive.checkpoint_every = 3;
  windows.rule = StopRule{"hits", "trials"};
  for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
    McConfig cfg = base;
    cfg.shards = shards;
    const McResult one_round = run_mc(trials, cfg, indexed);
    EXPECT_TRUE(one_round.acc == want.acc) << shards << " shards";
    const McResult windowed = run_mc(trials, cfg, indexed, windows);
    EXPECT_TRUE(windowed.acc == want.acc) << shards << " shards, windows";
    EXPECT_EQ(windowed.checkpoints, 7u);
    EXPECT_EQ(windowed.info.trials, trials);
    EXPECT_FALSE(windowed.target_met);
  }
}

TEST(McEngineShards, RunTrialsShardedMatchesPlainRun) {
  // A sliced run must return the plain run's accumulator bit for bit.
  McConfig cfg;
  cfg.seed = 31;
  const McResult want = run_trials(500, cfg, mixed_trial);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}}) {
    McConfig sharded = cfg;
    sharded.shards = shards;
    const McResult got = run_trials(500, sharded, mixed_trial);
    EXPECT_TRUE(got.acc == want.acc) << shards << " shards";
    EXPECT_EQ(got.info.trials, want.info.trials);
    EXPECT_EQ(got.info.chunks, want.info.chunks);
  }
}

TEST(McEngineShards, ShardsAndThreadsComposeBitwise) {
  // threads × shards: each slice fans out across the 3-thread pool,
  // and chunk ordinals stay global — the composition must equal the
  // plain serial run exactly.
  McConfig serial;
  serial.seed = 47;
  const McResult want = run_trials(400, serial, mixed_trial);
  ThreadPool pool(3);
  McConfig cfg = serial;
  cfg.pool = &pool;
  cfg.shards = 2;
  const McResult got = run_trials(400, cfg, mixed_trial);
  EXPECT_TRUE(got.acc == want.acc);
  EXPECT_EQ(got.info.threads, 3u);
}

TEST(McEngineShards, RunTrialBatchesShardedMatchesUnsharded) {
  const McBatchFn batch_trial = [](std::size_t, std::size_t count, Rng* rngs,
                                   McAccumulator& acc) {
    for (std::size_t i = 0; i < count; ++i) {
      acc.count("heads", rngs[i].bernoulli(0.5) ? 1 : 0);
      acc.observe("g", rngs[i].complex_gaussian().real());
    }
    acc.count("trials", count);
  };
  McConfig cfg;
  cfg.seed = 53;
  // Width 1 is the reference: width 4 regroups the trials of each chunk
  // but not their streams or their order.
  const McResult want = run_mc(333, cfg, batch_trial);
  cfg.batch_width = 4;
  EXPECT_TRUE(run_mc(333, cfg, batch_trial).acc == want.acc) << "width 4";
  for (const std::size_t shards : {2u, 4u}) {
    McConfig sharded = cfg;
    sharded.shards = shards;
    const McResult got = run_mc(333, sharded, batch_trial);
    EXPECT_TRUE(got.acc == want.acc) << shards << " shards";
    EXPECT_EQ(got.acc.counter("trials"), 333u);
  }
}

TEST(McEngineShards, MoreShardsThanChunksStillCovers) {
  // A round runs at most one slice per chunk, so surplus shards cost
  // nothing — not even at SIZE_MAX, where n·s/shards would overflow —
  // and coverage and bit-identity must survive.
  McConfig cfg;
  cfg.seed = 61;
  cfg.chunk_size = 50;  // 2 chunks for 100 trials
  const McResult want = run_trials(100, cfg, mixed_trial);
  for (const std::size_t shards :
       {std::size_t{8}, std::numeric_limits<std::size_t>::max()}) {
    cfg.shards = shards;
    const McResult got = run_trials(100, cfg, mixed_trial);
    EXPECT_TRUE(got.acc == want.acc) << shards << " shards";
    EXPECT_EQ(got.acc.counter("trials"), 100u) << shards << " shards";
  }
}

TEST(McEngineShards, ShardedWaveformSweepIsShardCountInvariant) {
  // The production call site: measure_waveform_ber with shards > 1 must
  // return the single-process integers exactly.
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 400;
  cfg.seed = 71;
  const WaveformBerPoint want = measure_waveform_ber(cfg, 6.0);
  for (const std::size_t shards : {2u, 3u}) {
    WaveformBerConfig sharded_cfg = cfg;
    sharded_cfg.shards = shards;
    const WaveformBerPoint got = measure_waveform_ber(sharded_cfg, 6.0);
    EXPECT_EQ(got.bit_errors, want.bit_errors) << shards << " shards";
    EXPECT_EQ(got.bits, want.bits) << shards << " shards";
    EXPECT_DOUBLE_EQ(got.ber, want.ber) << shards << " shards";
  }
}

TEST(McEngineShards, ObsMetricsAreShardCountInvariant) {
  // Slices run in this process, so whatever the trial code records in
  // the obs registry lands there at any shard count, and histograms fold
  // by global chunk ordinal.  Every deterministic counter, gauge and
  // histogram must match the one-slice run; only the mc.shard_count
  // gauge tells the runs apart.
  obs::set_enabled(true);
  if (!obs::enabled()) GTEST_SKIP() << "obs compiled out";
  // The SIMD dispatch publishes its gauges once per process, when it
  // pins a tier; pin it before the first reset so both runs see it.
  (void)simd::batch_width();
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  const obs::Histogram trial_hist = reg.histogram("mc_test.trial_gauss");
  struct Export {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, RunningStats> histograms;
  };
  ThreadPool pool(3);
  const auto export_at = [&](std::size_t shards) {
    reg.reset();
    WaveformBerConfig cfg;
    cfg.b = 2;
    cfg.mt = 2;
    cfg.mr = 2;
    cfg.blocks = 2000;
    cfg.seed = 83;
    cfg.pool = &pool;
    cfg.shards = shards;
    (void)measure_waveform_ber(cfg, 6.0);
    cfg.adaptive.target_rel_ci = 0.2;
    cfg.adaptive.checkpoint_every = 3;
    (void)measure_waveform_ber(cfg, 0.0);
    McConfig mc;
    mc.seed = 89;
    mc.pool = &pool;
    mc.shards = shards;
    (void)run_trials(700, mc, [&](std::size_t t, Rng& rng, McAccumulator& a) {
      mixed_trial(t, rng, a);
      trial_hist.observe(rng.complex_gaussian().real());
    });
    Export e;
    for (const auto& c : reg.counters()) {
      if (c.domain == obs::Domain::kDeterministic) e.counters[c.name] = c.value;
    }
    for (const auto& g : reg.gauges()) {
      if (g.domain == obs::Domain::kDeterministic) e.gauges[g.name] = g.value;
    }
    for (const auto& h : reg.histograms()) {
      if (h.domain == obs::Domain::kDeterministic) {
        e.histograms[h.name] = h.stats;
      }
    }
    return e;
  };
  const Export want = export_at(1);
  const Export got = export_at(3);
  reg.reset();
  obs::set_enabled(false);
  EXPECT_GT(want.counters.at("phy.link_blocks"), 0u);
  EXPECT_EQ(want.histograms.at("mc_test.trial_gauss").count(), 700u);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.histograms, want.histograms);
  EXPECT_EQ(want.gauges.at("mc.shard_count"), 1.0);
  EXPECT_EQ(got.gauges.at("mc.shard_count"), 3.0);
  std::map<std::string, double> got_gauges = got.gauges;
  std::map<std::string, double> want_gauges = want.gauges;
  got_gauges.erase("mc.shard_count");
  want_gauges.erase("mc.shard_count");
  EXPECT_EQ(got_gauges, want_gauges);
}

// ---------------------------------------------------------------------
// Ported simulators: the same invariance, end to end.
// ---------------------------------------------------------------------

TEST(McEnginePorts, WaveformBerIsPoolInvariant) {
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 600;
  cfg.seed = 42;
  ThreadPool one(1);
  cfg.pool = &one;
  const WaveformBerPoint ref = measure_waveform_ber(cfg, 6.0);
  ThreadPool many(4);
  cfg.pool = &many;
  const WaveformBerPoint par = measure_waveform_ber(cfg, 6.0);
  EXPECT_EQ(ref.bit_errors, par.bit_errors);
  EXPECT_EQ(ref.bits, par.bits);
  EXPECT_DOUBLE_EQ(ref.ber, par.ber);
}

TEST(McEnginePorts, CoopHopSimIsPoolInvariant) {
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig hop;
  hop.mt = 2;
  hop.mr = 2;
  hop.ber = 1e-2;
  CoopHopSimConfig sim;
  sim.plan = planner.plan(hop, BSelectionRule::kMinTotalPa);
  sim.bits = 4000;
  sim.seed = 13;
  ThreadPool one(1);
  sim.pool = &one;
  const CoopHopSimResult ref = simulate_cooperative_hop(sim);
  ThreadPool many(3);
  sim.pool = &many;
  const CoopHopSimResult par = simulate_cooperative_hop(sim);
  EXPECT_EQ(ref.bits, par.bits);
  EXPECT_EQ(ref.bit_errors, par.bit_errors);
  EXPECT_DOUBLE_EQ(ref.intra_error_rate, par.intra_error_rate);
  EXPECT_TRUE(ref.resilience == par.resilience);
}

TEST(McEnginePorts, LifetimeEnsembleIsPoolInvariant) {
  const auto nodes = clustered_field(12, 3, 6.0, 400.0, 400.0, /*seed=*/11,
                                     /*battery_lo=*/20.0,
                                     /*battery_hi=*/30.0);
  CoMimoNetConfig net_cfg;
  net_cfg.communication_range_m = 40.0;
  net_cfg.cluster_diameter_m = 16.0;
  net_cfg.link_range_m = 280.0;
  const CoMimoNet net(nodes, net_cfg);
  LifetimeEnsembleConfig ens;
  ens.trials = 4;
  ens.seed = 2024;
  ThreadPool one(1);
  ens.pool = &one;
  const LifetimeEnsembleReport ref =
      simulate_lifetime_ensemble(net, SystemParams{}, ens);
  ThreadPool many(3);
  ens.pool = &many;
  const LifetimeEnsembleReport par =
      simulate_lifetime_ensemble(net, SystemParams{}, ens);
  EXPECT_TRUE(ref.rounds_to_first_death == par.rounds_to_first_death);
  EXPECT_TRUE(ref.min_battery_j == par.min_battery_j);
  EXPECT_EQ(ref.censored_trials, par.censored_trials);
  EXPECT_EQ(ref.trials, par.trials);
  EXPECT_GT(ref.trials, 0u);
}

TEST(McEnginePorts, ResilienceEnsembleIsPoolInvariant) {
  const auto nodes = clustered_field(12, 3, 6.0, 400.0, 400.0, /*seed=*/5,
                                     /*battery_lo=*/50.0,
                                     /*battery_hi=*/80.0);
  CoMimoNetConfig net_cfg;
  net_cfg.communication_range_m = 40.0;
  net_cfg.cluster_diameter_m = 16.0;
  net_cfg.link_range_m = 280.0;
  const CoMimoNet net(nodes, net_cfg);
  ResilienceEnsembleConfig ens;
  ens.trials = 3;
  ens.seed = 77;
  ThreadPool one(1);
  ens.pool = &one;
  const ResilienceEnsembleReport ref =
      simulate_with_faults_ensemble(net, SystemParams{}, ens);
  ThreadPool many(4);
  ens.pool = &many;
  const ResilienceEnsembleReport par =
      simulate_with_faults_ensemble(net, SystemParams{}, ens);
  EXPECT_TRUE(ref.delivery_ratio == par.delivery_ratio);
  EXPECT_TRUE(ref.energy_spent_j == par.energy_spent_j);
  EXPECT_EQ(ref.retransmissions, par.retransmissions);
  EXPECT_EQ(ref.node_deaths, par.node_deaths);
  EXPECT_EQ(ref.trials, par.trials);
}

}  // namespace
}  // namespace comimo
