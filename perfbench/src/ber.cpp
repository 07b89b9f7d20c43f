// `ber` workload: an adaptive waveform-BER sweep resolved to stated
// precision, the 6 dB 2x2 point again through two shard processes, and
// one simulated three-hop route (2x2 -> 4x2 -> 4x4).
//
// The MC driver, the batch and scalar-IS link kernels, shard transport
// and the hop leg do nearly all the work.  High-BER points stop at the
// first checkpoint (4M-block budget, 32 rounds: 125 024 trials), which
// exposes checkpoint granularity; SISO BPSK makes the MC driver's per-trial
// cost a visible share.
#include <cmath>
#include <iostream>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/mc/adaptive.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_workspace.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace comimo;

constexpr unsigned kBerPool = 3;
constexpr std::size_t kBudget = 4'000'000;  // blocks per point
constexpr std::size_t kRouteBits = 400'000;

struct PointSpec {
  const char* name;
  int b;
  unsigned mt;
  unsigned mr;
  double gamma_db;
  double target;
  double lambda;  ///< fade tilt; 0 = plain sampling
  const char* shape;
};

const std::vector<PointSpec>& points() {
  static const std::vector<PointSpec> p{
      {"2x2_qpsk_0db", 2, 2, 2, 0.0, 0.05, 0.0, "2x2"},
      {"2x2_qpsk_6db", 2, 2, 2, 6.0, 0.05, 0.0, "2x2"},
      {"2x2_qpsk_10db", 2, 2, 2, 10.0, 0.1, 0.0, "2x2"},
      {"4x4_16qam_6db", 4, 4, 4, 6.0, 0.1, 0.0, "4x4"},
      {"1x1_bpsk_10db", 1, 1, 1, 10.0, 0.05, 0.0, "1x1"},
      {"1x1_bpsk_20db", 1, 1, 1, 20.0, 0.1, 0.0, "1x1"},
      {"2x2_qpsk_14db_is", 2, 2, 2, 14.0, 0.1, 3.0, "2x2"}};
  return p;
}
constexpr std::size_t kShardedOf = 1;  // the 6 dB 2x2 point

WaveformBerConfig config_for(const PointSpec& s, std::uint64_t seed,
                             ThreadPool& pool) {
  WaveformBerConfig cfg;
  cfg.b = s.b;
  cfg.mt = s.mt;
  cfg.mr = s.mr;
  cfg.blocks = kBudget;
  cfg.seed = seed;
  cfg.pool = &pool;
  cfg.adaptive.target_rel_ci = s.target;
  if (s.lambda > 0.0) {
    cfg.adaptive.is_mode = IsMode::kScaledNoise;
    cfg.adaptive.is_noise_scale = 1.0;  // fade tilt only
    cfg.adaptive.is_channel_scale = s.lambda;
  }
  return cfg;
}

struct Timed {
  WaveformBerPoint point;
  double cpu_s = 0.0;  ///< process CPU time of the call, all threads
};

}  // namespace

void run_ber(Context& ctx) {
  const unsigned p = pool_size(kBerPool);
  ctx.report.config("pool_threads", static_cast<double>(p));
  ctx.report.config("budget_blocks", static_cast<double>(kBudget));
  ctx.report.config("route_bits", static_cast<double>(kRouteBits));

  // Set-up: the worker pool and the route plans, redone five times
  // before every pass so the samples spread over the run; setup_s is
  // their median.
  std::vector<double> setup;
  std::unique_ptr<ThreadPool> pool;
  std::vector<UnderlayHopPlan> plans;
  const auto set_up = [&] {
    for (int rep = 0; rep < 5; ++rep) {
      pool.reset();
      const std::int64_t t0 = now_ns();
      pool = std::make_unique<ThreadPool>(p);
      parallel_for(*pool, p, [](std::size_t) {});
      const UnderlayCooperativeHop planner;
      plans.clear();
      const std::pair<unsigned, unsigned> shapes[] = {{2, 2}, {4, 2}, {4, 4}};
      for (const auto& [mt, mr] : shapes) {
        UnderlayHopConfig hop;
        hop.mt = mt;
        hop.mr = mr;
        hop.hop_distance_m = 200.0;
        hop.ber = 1e-3;
        plans.push_back(planner.plan(hop));
      }
      setup.push_back(seconds_between(t0, now_ns()));
    }
  };


  const auto& specs = points();
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    seeds.push_back(derive_seed(ctx.opt.seed, 100 + i));
  }
  const std::uint64_t route_seed = derive_seed(ctx.opt.seed, 200);

  // One pass = every point, the sharded point, the route.  Components
  // are timed one by one; wall_s sums their medians over passes.
  const std::size_t ncomp = specs.size() + 2;
  std::vector<std::vector<double>> comp_s(ncomp);
  std::vector<Timed> first(specs.size());
  Timed sharded;
  RouteSimResult route;
  std::size_t passes = 0;
  const double cpu0 = process_cpu_s();
  const std::int64_t phase0 = now_ns();
  while (passes == 0 || seconds_between(phase0, now_ns()) < ctx.opt.seconds) {
    set_up();
    Tracer::Scope pass(ctx.tracer, "ber.pass", -1, passes + 1);
    for (std::size_t i = 0; i <= specs.size(); ++i) {
      const bool shard_run = i == specs.size();
      const std::size_t k = shard_run ? kShardedOf : i;
      WaveformBerConfig cfg = config_for(specs[k], seeds[k], *pool);
      if (shard_run) cfg.shards = 2;
      Tracer::Scope s(ctx.tracer,
                      shard_run ? "mc.sharded_point" : "mc.measure_waveform_ber",
                      pass.index(), 1000 * (passes + 1) + i);
      const double c0 = process_cpu_s();
      const std::int64_t t0 = now_ns();
      Timed t;
      t.point = measure_waveform_ber(cfg, specs[k].gamma_db);
      comp_s[i].push_back(seconds_between(t0, now_ns()));
      t.cpu_s = process_cpu_s() - c0;
      if (passes == 0) {
        (shard_run ? sharded : first[i]) = t;
      } else {
        const WaveformBerPoint& ref =
            shard_run ? sharded.point : first[i].point;
        ctx.report.check(ref.bits == t.point.bits &&
                             ref.bit_errors == t.point.bit_errors &&
                             ref.trials_executed == t.point.trials_executed,
                         std::string("ber: ") + specs[k].name +
                             " changed between passes");
      }
    }
    {
      Tracer::Scope s(ctx.tracer, "testbed.simulate_route", pass.index(),
                      1000 * (passes + 1) + 999);
      const std::int64_t t0 = now_ns();
      RouteSimResult r = simulate_route(plans, kRouteBits, 30.0, route_seed,
                                        {}, pool.get());
      comp_s[ncomp - 1].push_back(seconds_between(t0, now_ns()));
      if (passes == 0) {
        route = std::move(r);
      } else {
        ctx.report.check(r.bit_errors == route.bit_errors,
                         "ber: route result changed between passes");
      }
    }
    ++passes;
  }
  const double phase_wall = seconds_between(phase0, now_ns());
  const double cpu = process_cpu_s() - cpu0;

  double wall = 0.0;
  for (const auto& c : comp_s) wall += median(c);
  ctx.report.metric("wall_s", wall, "s", passes);
  ctx.report.metric("setup_s", median(setup), "s", setup.size());
  ctx.report.metric("common.pool_busy_frac", cpu / (phase_wall * p), "1");
  ctx.report.config("passes", static_cast<double>(passes));

  // Output checks on the first pass (later passes must repeat it).
  std::size_t trials = 0;
  std::size_t checkpoints = 0;
  double overshoot = 0.0;
  std::size_t met_points = 0;
  comimo::Json per_point = comimo::Json::object();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const WaveformBerPoint& pt = first[i].point;
    const std::size_t events =
        specs[i].lambda > 0.0 ? pt.err_blocks : pt.bit_errors;
    // A point below min_events reports rel_ci = 0: not met, not precise.
    const bool met = pt.target_met && pt.rel_ci > 0.0 &&
                     events >= AdaptiveConfig{}.min_events;
    const bool exhausted = pt.trials_executed >= pt.trials_budget;
    ctx.report.check(met || exhausted,
                     std::string("ber: ") + specs[i].name +
                         " neither met its target nor used its budget");
    // The point's own CI, widened from its 95 % level to 99.99 %: a 95 %
    // interval misses the truth at one point in twenty by design, which
    // over seven points and many runs would flag a correct program on
    // most runs.  At 99.99 % a flagged point is a real disagreement.
    const double widen = confidence_z(0.9999) / confidence_z(0.95);
    const double lo = pt.ber - widen * (pt.ber - pt.estimate.wilson_lo);
    const double hi = pt.ber + widen * (pt.estimate.wilson_hi - pt.ber);
    ctx.report.check(pt.analytic >= lo && pt.analytic <= hi,
                     std::string("ber: ") + specs[i].name +
                         " misses the analytic BER by more than its CI");
    trials += pt.trials_executed;
    checkpoints += pt.checkpoints;
    if (met) {
      overshoot += specs[i].target / pt.rel_ci;
      ++met_points;
    }
    comimo::Json j = comimo::Json::object();
    j.set("ber", pt.ber);
    j.set("analytic", pt.analytic);
    j.set("ci_lo", pt.estimate.wilson_lo);
    j.set("ci_hi", pt.estimate.wilson_hi);
    j.set("rel_ci", pt.rel_ci);
    j.set("target_met", met);
    j.set("trials", static_cast<std::uint64_t>(pt.trials_executed));
    j.set("checkpoints", static_cast<std::uint64_t>(pt.checkpoints));
    j.set("wall_s", median(comp_s[i]));
    per_point.set(specs[i].name, std::move(j));
  }
  ctx.report.config("points", std::move(per_point));
  const WaveformBerPoint& in = first[kShardedOf].point;
  ctx.report.check(sharded.point.bits == in.bits &&
                       sharded.point.bit_errors == in.bit_errors &&
                       sharded.point.trials_executed == in.trials_executed &&
                       sharded.point.checkpoints == in.checkpoints,
                   "ber: sharded point differs from the in-process point");
  double target_sum = 0.0;
  for (const auto& pl : plans) target_sum += pl.config.ber;
  ctx.report.check(route.bits == kRouteBits && std::isfinite(route.ber) &&
                       route.ber <= 3.0 * target_sum,
                   "ber: route BER above three times the summed hop targets");
  ctx.report.config("route_ber", route.ber);

  ctx.report.metric("mc.trials_executed", static_cast<double>(trials),
                    "count");
  ctx.report.metric("mc.checkpoints", static_cast<double>(checkpoints),
                    "count");
  ctx.report.metric("mc.ci_overshoot",
                    met_points ? overshoot / static_cast<double>(met_points)
                               : 0.0,
                    "1", met_points);
  ctx.report.metric("mc.shard_overhead_ms",
                    (median(comp_s[specs.size()]) - median(comp_s[kShardedOf])) *
                        1e3,
                    "ms", passes);

  if (ctx.tracer.enabled()) {
    // Route: blocks per hop from the plan's block size.
    std::size_t blocks = 0;
    for (const auto& pl : plans) {
      const CoopHopBlockKernel k(pl, 30.0);
      blocks += (kRouteBits + k.bits_per_block() - 1) / k.bits_per_block();
    }
    ctx.report.metric("testbed.hop_ns_per_block",
                      median(comp_s.back()) * 1e9 / static_cast<double>(blocks),
                      "ns", blocks);

    // Kernel-only reference loops over each point's own (seed, trial)
    // streams: same blocks, same bits, no MC driver.
    const std::size_t width = simd::batch_width();
    std::map<std::string, std::pair<double, std::size_t>> shape_ns;
    double kernel_cpu = 0.0;
    double driver_cpu = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const PointSpec& s = specs[i];
      const WaveformBerPoint& pt = first[i].point;
      const WaveformBerKernel kernel(s.b, s.mt, s.mr, db_to_linear(s.gamma_db));
      Tracer::Scope span(ctx.tracer, "phy.kernel_reference", -1, 5000 + i);
      std::size_t errors = 0;
      const double c0 = process_cpu_s();
      const std::int64_t t0 = now_ns();
      if (s.lambda > 0.0) {
        LinkWorkspace ws;
        kernel.prepare(ws);
        for (std::size_t t = 0; t < pt.trials_executed; ++t) {
          Rng rng(seeds[i], t);
          errors += kernel.run_block_is(ws, rng, 1.0, s.lambda).bit_errors;
        }
      } else {
        HopBatchWorkspace ws;
        kernel.prepare_batch(ws, width);
        std::vector<Rng> rngs;
        for (std::size_t t = 0; t < pt.trials_executed; t += width) {
          const std::size_t n = std::min(width, pt.trials_executed - t);
          rngs.clear();
          for (std::size_t k = 0; k < n; ++k) rngs.emplace_back(seeds[i], t + k);
          errors += kernel.run_block_batch(ws, rngs.data(), n);
        }
      }
      const double ns = static_cast<double>(now_ns() - t0);
      kernel_cpu += process_cpu_s() - c0;
      driver_cpu += first[i].cpu_s;
      ctx.report.check(errors == pt.bit_errors,
                       std::string("ber: kernel-only loop of ") + s.name +
                           " counts different bit errors than the sweep");
      if (s.lambda > 0.0) {
        ctx.report.metric("phy.link_is_ns_per_block",
                          ns / static_cast<double>(pt.trials_executed), "ns",
                          pt.trials_executed);
      } else {
        auto& acc = shape_ns[s.shape];
        acc.first += ns;
        acc.second += pt.trials_executed;
      }
    }
    for (const auto& [shape, acc] : shape_ns) {
      ctx.report.metric("phy.link_ns_per_block." + shape,
                        acc.first / static_cast<double>(acc.second), "ns",
                        acc.second);
    }
    ctx.report.metric("mc.driver_overhead_frac",
                      driver_cpu > 0.0 ? 1.0 - kernel_cpu / driver_cpu : 0.0,
                      "1", specs.size());
  }
  std::cout << "ber: " << passes << " passes, wall_s " << wall << " s\n";
}

}  // namespace perfbench
