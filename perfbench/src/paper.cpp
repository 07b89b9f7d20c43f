// `paper` workload: the paper reproduction set — Tables 1–4, Figs. 6–8
// and the energy-model validation grid — with the same calls and
// parameters as the bench binaries (bench/table*.cpp, bench/fig*.cpp,
// bench/validate_energy_model.cpp).
//
// The items run at the paper's own seeds, so every pass is checked
// against the ranges and pinned values of tests/test_golden_tables.cpp;
// the workload seed is recorded but changes no input.
// GMSK, AWGN and the hop simulator do the work; routing, the service and
// the waveform-BER sweep are never called.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/energy/ebbar.h"
#include "comimo/interweave/pair_beamformer.h"
#include "comimo/interweave/pu_selection.h"
#include "comimo/mc/engine.h"
#include "comimo/numeric/rng.h"
#include "comimo/overlay/distance_planner.h"
#include "comimo/phy/gmsk.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/testbed/experiments.h"
#include "comimo/testbed/framing.h"
#include "comimo/testbed/image.h"
#include "comimo/underlay/pa_budget.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace comimo;

// Six Table-4 cells split evenly over three threads; a fourth thread
// would not shorten the pass (the longest thread still runs two cells).
constexpr unsigned kPaperPool = 3;

bool near_rel(double v, double golden) {
  return std::abs(v - golden) <= std::abs(golden) * 1e-9;
}

struct Item {
  std::string name;  ///< per-layer metric stem, e.g. "interweave.table1"
  std::function<void(ThreadPool&, Context&, std::int64_t span)> run;
};

void table1(ThreadPool& pool, Context& ctx, std::int64_t) {
  const PairGeometry geom{Vec2{0.0, 7.5}, Vec2{0.0, -7.5}};
  const double sr_angle = deg_to_rad(76.6);
  const Vec2 axis = (geom.st2 - geom.st1).normalized();
  const Vec2 perp{-axis.y, axis.x};
  const Vec2 sr = geom.center() +
                  (axis * std::cos(sr_angle) + perp * std::sin(sr_angle)) *
                      150.0;
  McConfig mc;
  mc.seed = 2013;
  mc.pool = &pool;
  const McResult run = run_trials(
      10, mc, [&](std::size_t t, Rng&, McAccumulator& acc) {
        Rng rng(2013, t + 1);
        std::vector<Vec2> candidates;
        for (int i = 0; i < 20; ++i) {
          candidates.push_back(rng.point_in_disk(geom.st1, 150.0));
        }
        const PuSelectionWeights weights{0.25, 2.0};
        const std::size_t pick =
            select_pu(geom.center(), sr, candidates, weights);
        const NullSteeringPair pair(geom, 30.0, candidates[pick]);
        acc.observe("amplitude", pair.amplitude_at(sr));
      });
  const RunningStats& amp = run.acc.stat("amplitude");
  ctx.report.check(amp.mean() >= 1.87 && amp.mean() <= 1.89 && amp.min() > 1.5,
                   "table1: mean amplitude outside the paper's 1.87-1.89");
  ctx.report.check(near_rel(amp.mean(), 1.8760951342243513) &&
                       near_rel(amp.min(), 1.7885141957097594) &&
                       near_rel(amp.max(), 1.9444628343652204),
                   "table1: amplitudes differ from the pinned values");
}

void table2(ThreadPool& pool, Context& ctx, std::int64_t span) {
  std::vector<OverlayBerResult> r(3);
  McConfig mc;
  mc.pool = &pool;
  (void)run_trials(3, mc, [&](std::size_t t, Rng&, McAccumulator&) {
    Tracer::Scope s(ctx.tracer, "testbed.overlay_ber", span);
    r[t] = run_overlay_ber(table2_single_relay_config(t + 1));
  });
  const double golden_coop[] = {0.01662, 0.01878, 0.02093};
  const double golden_direct[] = {0.0923, 0.09887, 0.10989};
  double coop = 0.0;
  double direct = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    ctx.report.check(near_rel(r[k].ber_cooperative, golden_coop[k]) &&
                         near_rel(r[k].ber_direct, golden_direct[k]) &&
                         r[k].ber_cooperative < r[k].ber_direct,
                     "table2: experiment " + std::to_string(k + 1) +
                         " differs from the pinned BERs");
    coop += r[k].ber_cooperative / 3.0;
    direct += r[k].ber_direct / 3.0;
  }
  ctx.report.check(coop < 0.05 && std::abs(direct - 0.1087) <= 0.03 &&
                       direct / coop > 3.0,
                   "table2: averages outside the paper's ranges");
}

void table3(ThreadPool& pool, Context& ctx, std::int64_t span) {
  std::vector<OverlayBerResult> multi(3);
  std::vector<OverlayBerResult> single(3);
  McConfig mc;
  mc.pool = &pool;
  (void)run_trials(3, mc, [&](std::size_t t, Rng&, McAccumulator&) {
    Tracer::Scope s(ctx.tracer, "testbed.overlay_ber", span);
    multi[t] = run_overlay_ber(table3_multi_relay_config(3, t + 1));
    single[t] = run_overlay_ber(table3_multi_relay_config(1, t + 1));
  });
  double m = 0.0;
  double s = 0.0;
  double none = 0.0;
  for (std::size_t k = 0; k < 3; ++k) {
    m += multi[k].ber_cooperative / 3.0;
    s += single[k].ber_cooperative / 3.0;
    none += single[k].ber_direct / 3.0;
  }
  ctx.report.check(m < s && s < none && std::abs(none - 0.2274) <= 0.05,
                   "table3: multi < single < none ordering or range broken");
  ctx.report.check(near_rel(m, 0.013916666666666666) &&
                       near_rel(s, 0.09198) && near_rel(none, 0.22857),
                   "table3: averages differ from the pinned values");
}

void table4(ThreadPool& pool, Context& ctx, std::int64_t span) {
  const std::vector<double> amplitudes{800.0, 600.0, 400.0};
  std::vector<UnderlayPerResult> r(amplitudes.size() * 2);
  McConfig mc;
  mc.pool = &pool;
  (void)run_trials(r.size(), mc, [&](std::size_t t, Rng&, McAccumulator&) {
    Tracer::Scope s(ctx.tracer, "testbed.underlay_per", span);
    UnderlayPerConfig cfg;
    cfg.amplitude = amplitudes[t / 2];
    cfg.seed = 7;
    cfg.cooperative = (t % 2 == 0);
    r[t] = run_underlay_per(cfg);
  });
  ctx.report.check(r[0].per == 0.0 && r[0].reassembly.recoverable(),
                   "table4: cooperative PER at amplitude 800 is not 0");
  ctx.report.check(std::abs(r[1].per - 0.2485) <= 0.05 &&
                       near_rel(r[1].per, 0.2489451476793249),
                   "table4: solo PER at amplitude 800 differs from pinned");
  bool sane = true;
  for (const auto& x : r) sane = sane && x.per >= 0.0 && x.per <= 1.0;
  ctx.report.check(sane, "table4: PER outside [0, 1]");
}

void fig6(ThreadPool&, Context& ctx, std::int64_t) {
  const OverlayDistancePlanner planner(SystemParams{},
                                       EbBarConvention::kTotalEnergy);
  std::vector<double> d1;
  for (double d = 150.0; d <= 350.0 + 1e-9; d += 25.0) d1.push_back(d);
  bool finite = true;
  for (const unsigned m : {2u, 3u}) {
    for (const double bw : {20e3, 40e3}) {
      OverlayDistanceQuery base;
      base.num_relays = m;
      base.bandwidth_hz = bw;
      for (const auto& x : planner.sweep_d1(d1, base)) {
        finite = finite && std::isfinite(x.d2_m) && std::isfinite(x.d3_m);
      }
    }
  }
  for (double bw = 10e3; bw <= 100e3 + 1e-6; bw += 15e3) {
    OverlayDistanceQuery q;
    q.d1_m = 250.0;
    q.num_relays = 3;
    q.bandwidth_hz = bw;
    const auto x = planner.plan(q);
    finite = finite && std::isfinite(x.d2_m) && std::isfinite(x.d3_m);
  }
  OverlayDistanceQuery q;
  q.d1_m = 250.0;
  q.num_relays = 3;
  q.bandwidth_hz = 40e3;
  const auto a = planner.plan(q);
  const OverlayDistancePlanner literal(SystemParams{},
                                       EbBarConvention::kPerAntennaSplit);
  const auto lit = literal.plan(q);
  ctx.report.check(finite && std::isfinite(lit.d3_m),
                   "fig6: non-finite distance");
  ctx.report.check(a.d2_m > q.d1_m && a.d3_m > a.d2_m &&
                       a.d3_m / a.d2_m > 1.4 &&
                       a.d3_m / a.d2_m < std::sqrt(3.0) + 0.01,
                   "fig6: anchor outside the paper's ordering");
  ctx.report.check(near_rel(a.d2_m, 721.2142548653477) &&
                       near_rel(a.d3_m, 1162.4544967926063),
                   "fig6: anchor differs from the pinned distances");
}

void fig7(ThreadPool&, Context& ctx, std::int64_t) {
  const PaBudgetSweep sweep;
  std::vector<double> distances;
  for (double d = 100.0; d <= 300.0 + 1e-9; d += 20.0) distances.push_back(d);
  const auto grid = sweep.sweep_grid(2, 3, distances, 1.0, 1e-3, 40e3);
  bool finite = grid.size() == 6;
  for (const auto& s : grid) {
    for (const auto& p : s.points) {
      finite = finite && std::isfinite(p.plan.total_pa()) &&
               p.plan.total_pa() > 0.0;
    }
  }
  const EbBarSolver solver;
  const double siso = solver.solve(1e-3, 2, 1, 1);
  const double mimo = solver.solve(1e-3, 2, 2, 3);
  ctx.report.check(finite, "fig7: grid incomplete or non-finite");
  ctx.report.check(std::abs(siso - 1.90e-18) <= 0.10e-18 && mimo > 1e-20 &&
                       mimo < 1e-19 && siso / mimo > 50.0,
                   "fig7: ebar anchors outside the paper's ranges");
  ctx.report.check(near_rel(siso, 1.9798651128586195e-18) &&
                       near_rel(mimo, 2.0443384293985833e-20),
                   "fig7: ebar anchors differ from the pinned values");
}

void fig8(ThreadPool&, Context& ctx, std::int64_t) {
  BeamPatternConfig cfg;
  cfg.null_angle_deg = 120.0;
  cfg.bits_per_point = 4000;
  const BeamPatternResult r = run_beam_pattern(cfg);
  std::size_t best = 0;
  std::size_t beats = 0;
  std::size_t eligible = 0;
  for (std::size_t i = 0; i < r.angles_deg.size(); ++i) {
    if (r.measured_coop[i] < r.measured_coop[best]) best = i;
    if (std::abs(r.angles_deg[i] - cfg.null_angle_deg) <= 20.0) continue;
    ++eligible;
    if (r.measured_coop[i] > r.measured_siso[i]) ++beats;
  }
  ctx.report.check(!r.angles_deg.empty() &&
                       std::abs(r.angles_deg[best] - 120.0) <= 20.0 &&
                       2 * beats > eligible,
                   "fig8: null misplaced or beamformer loses to SISO");
}

void validation(ThreadPool& pool, Context& ctx, std::int64_t span) {
  const UnderlayCooperativeHop planner;
  std::vector<CoopHopSimResult> r(9);
  McConfig mc;
  mc.pool = &pool;
  (void)run_trials(9, mc, [&](std::size_t t, Rng&, McAccumulator&) {
    UnderlayHopConfig cfg;
    cfg.mt = static_cast<unsigned>(t / 3) + 1;
    cfg.mr = static_cast<unsigned>(t % 3) + 1;
    cfg.hop_distance_m = 200.0;
    cfg.ber = 1e-2;
    CoopHopSimConfig sim;
    sim.plan = planner.plan(cfg, BSelectionRule::kMinTotalPa);
    sim.bits = 200000;
    sim.seed = 11;
    Tracer::Scope s(ctx.tracer, "testbed.hop_sim", span);
    r[t] = simulate_cooperative_hop(sim);
  });
  bool ok = true;
  for (const auto& x : r) {
    const double ratio = x.ber / x.target_ber;
    ok = ok && std::isfinite(ratio) && ratio > 0.5 && ratio < 2.0;
  }
  ctx.report.check(ok, "validation: measured hop BER off its target by 2x");
}

/// Kernel-only reference loops on Table 4's frames, one frame at a time:
/// GMSK modulation, the per-sample AWGN draw, and demodulation.
void gmsk_reference(Context& ctx, std::size_t packets) {
  const GmskModem modem{GmskConfig{}};
  const Framer framer;
  const SyntheticImage image = make_test_image(packets, 1500);
  AwgnChannel noise(1.0, Rng(7, 0xBEEF));
  std::int64_t mod_ns = 0;
  std::int64_t awgn_ns = 0;
  std::int64_t demod_ns = 0;
  std::size_t samples = 0;
  std::size_t ok = 0;
  const std::vector<Packet> pkts = packetize(image, 1500);
  for (const Packet& p : pkts) {
    const BitVec bits = framer.frame(p);
    const std::int64_t t0 = now_ns();
    std::vector<cplx> wave = modem.modulate(bits);
    const std::int64_t t1 = now_ns();
    for (cplx& x : wave) x += noise.sample();
    const std::int64_t t2 = now_ns();
    const BitVec rx = modem.demodulate(wave, bits.size());
    const std::int64_t t3 = now_ns();
    mod_ns += t1 - t0;
    awgn_ns += t2 - t1;
    demod_ns += t3 - t2;
    samples += wave.size();
    ok += rx.size() == bits.size() ? 1 : 0;
  }
  ctx.report.check(ok == pkts.size(),
                   "gmsk reference: demodulated frame length mismatch");
  const auto per_sample = [&](std::int64_t ns) {
    return static_cast<double>(ns) / static_cast<double>(samples);
  };
  ctx.report.metric("phy.gmsk_mod_ns_per_sample", per_sample(mod_ns), "ns",
                    samples);
  ctx.report.metric("phy.gmsk_demod_ns_per_sample", per_sample(demod_ns),
                    "ns", samples);
  ctx.report.metric("channel.awgn_ns_per_sample", per_sample(awgn_ns), "ns",
                    samples);
}

}  // namespace

void run_paper(Context& ctx) {
  const unsigned p = pool_size(kPaperPool);
  ctx.report.config("pool_threads", static_cast<double>(p));

  // Set-up: starting the worker pool, the only state the items share
  // (each item builds its own planners inside its timed region).  It is
  // redone ten times before every pass, so the samples spread over the
  // run; setup_s is their median.
  std::vector<double> setup;
  std::unique_ptr<ThreadPool> pool;
  const auto set_up = [&] {
    for (int rep = 0; rep < 10; ++rep) {
      pool.reset();
      const std::int64_t t0 = now_ns();
      pool = std::make_unique<ThreadPool>(p);
      parallel_for(*pool, p, [](std::size_t) {});
      setup.push_back(seconds_between(t0, now_ns()));
    }
  };

  std::vector<Item> items{
      {"interweave.table1", table1}, {"testbed.table2", table2},
      {"testbed.table3", table3},    {"testbed.table4", table4},
      {"overlay.fig6", fig6},        {"underlay.fig7", fig7},
      {"testbed.fig8", fig8},        {"testbed.validation", validation}};

  // Measured phase: whole passes over the set until --seconds is used.
  std::vector<std::vector<double>> item_s(items.size());
  std::vector<double> pass_s;
  const double cpu0 = process_cpu_s();
  const std::int64_t phase0 = now_ns();
  while (pass_s.empty() ||
         seconds_between(phase0, now_ns()) < ctx.opt.seconds) {
    set_up();
    const std::int64_t p0 = now_ns();
    Tracer::Scope pass(ctx.tracer, "paper.pass", -1, pass_s.size() + 1);
    for (std::size_t i = 0; i < items.size(); ++i) {
      Tracer::Scope s(ctx.tracer, items[i].name, pass.index());
      const std::int64_t t0 = now_ns();
      items[i].run(*pool, ctx, s.index());
      item_s[i].push_back(seconds_between(t0, now_ns()));
    }
    pass_s.push_back(seconds_between(p0, now_ns()));
  }
  const double phase_wall = seconds_between(phase0, now_ns());
  const double cpu = process_cpu_s() - cpu0;

  // wall_s: the pass time assembled from each item's median, which
  // keeps a noise burst inside one item of one pass out of the figure.
  double wall = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double m = median(item_s[i]);
    wall += m;
    const std::string& n = items[i].name;
    if (n == "interweave.table1" || n == "overlay.fig6" ||
        n == "underlay.fig7" || n == "testbed.fig8") {
      ctx.report.metric(n + "_s", m, "s", item_s[i].size());
    }
  }
  ctx.report.metric("wall_s", wall, "s", pass_s.size());
  ctx.report.metric("setup_s", median(setup), "s", setup.size());
  ctx.report.metric("common.pool_busy_frac", cpu / (phase_wall * p), "1");
  ctx.report.config("passes", static_cast<double>(pass_s.size()));

  if (ctx.tracer.enabled()) {
    const auto spans = ctx.tracer.spans();
    const double passes = static_cast<double>(pass_s.size());
    for (const char* layer :
         {"testbed.underlay_per", "testbed.overlay_ber", "testbed.hop_sim"}) {
      double total = 0.0;
      std::size_t n = 0;
      for (const Span& s : spans) {
        if (s.name == layer) {
          total += seconds_between(s.start_ns, s.end_ns);
          ++n;
        }
      }
      ctx.report.metric(std::string(layer) + "_s", total / passes, "s", n);
    }
    gmsk_reference(ctx, 474);
  }
  std::cout << "paper: " << pass_s.size() << " passes, wall_s " << wall
            << " s\n";
}

}  // namespace perfbench
