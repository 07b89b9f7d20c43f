// `net` workload: a 10^5-SU clustered field in bench/net_scale's
// geometry (4 SUs per 5 m group, width 150*sqrt(groups), r = 45 m,
// d = 14 m, D = 220 m).  Building the network and its routing backbone
// is set-up.  The measured phase is sampled CooperativeRouter::route
// queries (reads, dominated by the per-hop e_b solves of Algorithm 2)
// and kill waves through CoMimoNet::remove_nodes (writes).  The link
// kernel, GMSK and the service do no work here.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "comimo/common/constants.h"
#include "comimo/common/parallel.h"
#include "comimo/energy/ebbar.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/net/spanning_tree.h"
#include "comimo/numeric/rng.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace comimo;

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kPerGroup = 4;
constexpr double kRouteBer = 1e-3;
constexpr double kBandwidth = 40e3;
// One pass plans kPassHops route hops on kNetPool threads and runs
// kPassWaves kill waves of kWaveNodes SUs (10 % of the field) on one.
// At about 100 us per hop and 25-175 ms per wave (see NOTES.md) routes
// take about two thirds of a pass and churn a third.
constexpr unsigned kNetPool = 3;
constexpr std::size_t kPassHops = 40'000;
constexpr std::size_t kPassWaves = 5;
constexpr std::size_t kWaveNodes = 2000;

CoMimoNetConfig net_config() {
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  cfg.index_mode = NetIndexMode::kGrid;
  return cfg;
}

bool same_topology(const CoMimoNet& a, const CoMimoNet& b) {
  if (a.clusters().size() != b.clusters().size() ||
      a.links().size() != b.links().size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.clusters().size(); ++c) {
    const Cluster& x = a.clusters()[c];
    const Cluster& y = b.clusters()[c];
    if (x.id != y.id || x.head != y.head || x.members != y.members) {
      return false;
    }
  }
  for (std::size_t l = 0; l < a.links().size(); ++l) {
    const CoopLink& x = a.links()[l];
    const CoopLink& y = b.links()[l];
    if (x.a != y.a || x.b != y.b || x.length_m != y.length_m) return false;
  }
  return true;
}

}  // namespace

void run_net(Context& ctx) {
  const std::size_t groups = kNodes / kPerGroup;
  const double width = 150.0 * std::sqrt(static_cast<double>(groups));
  // The field is bench/net_scale's own (seed 42); the workload seed
  // draws the route queries on it.
  const std::uint64_t field_seed = 42;
  ctx.report.config("nodes", static_cast<double>(kNodes));

  const std::int64_t g0 = now_ns();
  const std::vector<SuNode> field =
      clustered_field(groups, kPerGroup, 5.0, width, width, field_seed);
  ctx.report.config("field_gen_s", seconds_between(g0, now_ns()));

  // Set-up: the network build and the router, whose constructor builds
  // the MST backbone.  Every pass starts with one; setup_s is the median.
  std::vector<double> setup;
  std::vector<double> build;
  std::unique_ptr<CoMimoNet> net;
  std::unique_ptr<CooperativeRouter> router;
  const auto set_up = [&] {
    router.reset();
    net.reset();
    const std::int64_t t0 = now_ns();
    net = std::make_unique<CoMimoNet>(field, net_config());
    const std::int64_t t1 = now_ns();
    router = std::make_unique<CooperativeRouter>(*net, SystemParams{},
                                                 kRouteBer, kBandwidth);
    build.push_back(seconds_between(t0, t1));
    setup.push_back(seconds_between(t0, now_ns()));
  };
  set_up();
  ctx.report.metric("net.clusters",
                    static_cast<double>(net->clusters().size()), "count");
  ctx.report.metric("net.links", static_cast<double>(net->links().size()),
                    "count");
  ctx.report.metric("net.bytes_per_node",
                    static_cast<double>(net->approx_bytes()) /
                        static_cast<double>(kNodes),
                    "B");
  ctx.report.check(net->validate(), "net: freshly built network is invalid");

  // Inputs: connected (src, dst) pairs drawn from the seed until their
  // backbone paths hold the hop budget, so every seed plans the same
  // number of hops.
  Rng pick(derive_seed(ctx.opt.seed, 301));
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<std::size_t> pair_hops;
  std::size_t planned_hops = 0;
  while (planned_hops < kPassHops) {
    const auto src = static_cast<NodeId>(pick.uniform_int(kNodes));
    const auto dst = static_cast<NodeId>(pick.uniform_int(kNodes));
    const auto path = router->backbone().path(net->cluster_of(src),
                                              net->cluster_of(dst));
    if (!path || path->size() < 2) continue;
    pairs.emplace_back(src, dst);
    pair_hops.push_back(path->size() - 1);
    planned_hops += path->size() - 1;
  }
  // The kill waves are a fixed scenario on the fixed field: how far a
  // wave's re-clustering cascades depends on its victims, and a few
  // waves per pass cannot average that out across seeds.
  std::vector<std::vector<NodeId>> victims(kPassWaves);
  {
    Rng kill(derive_seed(field_seed, 302));
    std::set<NodeId> dead;
    for (auto& wave : victims) {
      while (wave.size() < kWaveNodes) {
        const auto id = static_cast<NodeId>(kill.uniform_int(kNodes));
        if (dead.insert(id).second) wave.push_back(id);
      }
    }
  }
  ctx.report.config("route_pairs", static_cast<double>(pairs.size()));
  ctx.report.config("pass_hops", static_cast<double>(planned_hops));
  ctx.report.config("kill_waves", static_cast<double>(kPassWaves));
  ctx.report.config("kill_wave_nodes", static_cast<double>(kWaveNodes));

  // Measured phase: passes of (all routes, then all kill waves on the
  // pass's fresh network) until --seconds is used.  Routes are reads and
  // run concurrently on the pool, longest first; the waves mutate the
  // network and run on this thread.  The first pass checks every output;
  // later passes must repeat it exactly.
  const unsigned threads = pool_size(kNetPool);
  ctx.report.config("pool_threads", static_cast<double>(threads));
  ThreadPool pool(threads);
  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pair_hops[a] > pair_hops[b];
  });
  struct RouteOut {
    double dt = 0.0;
    std::size_t hops = 0;
    bool ok = false;
    std::vector<std::pair<unsigned, unsigned>> shapes;
  };
  std::vector<double> routes_wall;
  std::vector<double> routes_sum;  // Σ per-route time (thread-seconds)
  std::vector<std::vector<double>> wave_s(kPassWaves);
  std::vector<double> route_ms;
  std::vector<double> churn_ms;
  std::vector<std::size_t> route_hops(pairs.size(), 0);
  std::set<std::pair<unsigned, unsigned>> shapes;
  std::size_t passes = 0;
  const std::int64_t phase0 = now_ns();
  while (passes == 0 || seconds_between(phase0, now_ns()) < ctx.opt.seconds) {
    if (passes > 0) set_up();
    std::vector<RouteOut> out(pairs.size());
    const bool first = passes == 0;
    const std::int64_t r0 = now_ns();
    for (const std::size_t i : order) {
      pool.submit([&, i] {
        const std::int64_t t0 = now_ns();
        RouteReport r;
        {
          Tracer::Scope s(ctx.tracer, "net.route", -1, i + 1);
          r = router->route(pairs[i].first, pairs[i].second);
        }
        RouteOut& o = out[i];
        o.dt = seconds_between(t0, now_ns());
        o.hops = r.num_hops();
        if (!first) return;
        o.ok = r.num_hops() >= 1 && std::isfinite(r.total_energy_per_bit) &&
               r.total_energy_per_bit > 0.0;
        for (const RouteHop& h : r.hops) {
          o.ok = o.ok && h.plan.b >= 1 && h.plan.ebar > 0.0;
          o.shapes.emplace_back(h.plan.config.mt, h.plan.config.mr);
        }
      });
    }
    pool.wait_idle();
    routes_wall.push_back(seconds_between(r0, now_ns()));
    routes_sum.push_back(0.0);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      route_ms.push_back(out[i].dt * 1e3);
      routes_sum.back() += out[i].dt;
      if (!first) {
        ctx.report.check(out[i].hops == route_hops[i],
                         "net: route changed between passes");
        continue;
      }
      route_hops[i] = out[i].hops;
      shapes.insert(out[i].shapes.begin(), out[i].shapes.end());
      ctx.report.check(out[i].ok, "net: route " + std::to_string(i) +
                                      " has an empty or non-finite plan");
    }
  for (std::size_t w = 0; w < kPassWaves; ++w) {
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope s(ctx.tracer, "net.remove_nodes", -1, 100000 + w);
        net->remove_nodes(victims[w]);
      }
      const double dt = seconds_between(t0, now_ns());
      wave_s[w].push_back(dt);
      churn_ms.push_back(dt * 1e3);
      if (passes == 0) {
        ctx.report.check(net->validate(),
                         "net: invalid after kill wave " + std::to_string(w));
      }
    }
    if (passes == 0) {
      ctx.report.check(net->nodes().size() == kNodes - kPassWaves * kWaveNodes,
                       "net: survivors do not match the killed count");
      const CoMimoNet fresh(net->nodes(), net_config());
      ctx.report.check(same_topology(*net, fresh),
                       "net: incremental clusters/links differ from a "
                       "from-scratch build on the survivors");
    }
    ++passes;
  }
  std::size_t hops = 0;
  for (const std::size_t h : route_hops) hops += h;
  ctx.report.check(hops == planned_hops,
                   "net: routes took a different number of hops than the "
                   "backbone paths");

  // wall_s: one pass, with the route phase and each wave at their
  // medians over passes.
  const double routes = median(routes_wall);
  double churn = 0.0;
  for (const auto& v : wave_s) churn += median(v);
  ctx.report.metric("wall_s", routes + churn, "s", passes);

  ctx.report.metric("net.route_s", routes, "s", passes);
  ctx.report.metric("net.churn_s", churn, "s", kPassWaves);
  ctx.report.metric("setup_s", median(setup), "s", setup.size());
  ctx.report.metric("net.build_s", median(build), "s", build.size());
  ctx.report.config("passes", static_cast<double>(passes));
  ctx.report.percentile("net.route_ms.p50", percentile(route_ms, 0.5), "ms");
  ctx.report.percentile("net.route_ms.p90", percentile(route_ms, 0.9), "ms");
  ctx.report.percentile("net.churn_ms.p50", percentile(churn_ms, 0.5), "ms");
  ctx.report.metric("net.route_hops", static_cast<double>(hops), "count",
                    pairs.size());

  if (ctx.tracer.enabled()) {
    // Backbone MST on its own, and the BFS path on the same pairs (on a
    // rebuilt intact network, since the waves changed this one).
    const CoMimoNet intact(field, net_config());
    const std::int64_t m0 = now_ns();
    const RoutingBackbone backbone(intact);
    ctx.report.metric("net.mst_s", seconds_between(m0, now_ns()), "s");
    std::vector<double> path_ms;
    double path_s = 0.0;
    for (const auto& [src, dst] : pairs) {
      const std::int64_t t0 = now_ns();
      std::optional<std::vector<ClusterId>> path;
      {
        Tracer::Scope s(ctx.tracer, "net.path");
        path = backbone.path(intact.cluster_of(src), intact.cluster_of(dst));
      }
      const double dt = seconds_between(t0, now_ns());
      path_s += dt;
      path_ms.push_back(dt * 1e3);
      ctx.report.check(path.has_value(), "net: reference path missing");
    }
    ctx.report.percentile("net.path_ms.p50", percentile(path_ms, 0.5), "ms");
    ctx.report.metric("underlay.plan_us_per_hop",
                      (median(routes_sum) - path_s) * 1e6 /
                          static_cast<double>(hops),
                      "us", hops);
    // EbBarSolver::solve over the (p, b, mt, mr) set the routes visit.
    const EbBarSolver solver;
    std::size_t solves = 0;
    double sink = 0.0;
    const std::int64_t s0 = now_ns();
    for (int rep = 0; rep < 20; ++rep) {
      for (const auto& [mt, mr] : shapes) {
        for (int b = 1; b <= 16; ++b) {
          sink += solver.solve(kRouteBer, b, mt, mr);
          ++solves;
        }
      }
    }
    ctx.report.metric("energy.solve_us",
                      seconds_between(s0, now_ns()) * 1e6 /
                          static_cast<double>(solves),
                      "us", solves);
    ctx.report.check(std::isfinite(sink) && sink > 0.0,
                     "net: ebar solve returned a non-finite value");
  }
  std::cout << "net: " << passes << " passes of " << pairs.size()
            << " routes (" << hops << " hops) and " << kPassWaves
            << " kill waves, wall_s " << routes + churn << " s\n";
}

}  // namespace perfbench
