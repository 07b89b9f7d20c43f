// The ē_b memo behind every hop and constellation planner
// (MimoEnergyModel::ebar_row).
//
// Oracle: the planner as it was before the memo, one EbBarSolver::solve
// per b with a NumericError skipping that b, lives here as
// PerBSolvePlanner.  solve is a pure function of its arguments, so the
// memoized planner must match it bit for bit: on route reports over a
// clustered field, under every BSelectionRule, through replan_shrunk,
// and in the errors it throws.
//
// Concurrency: several threads plan interleaved shapes on one cold
// planner (and route on one router), racing to fill the same rows; every
// plan must equal the serial plan bitwise.  The TSan leg of
// scripts/ci.sh runs these.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/energy/optimizer.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/numeric/rng.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {
namespace {

constexpr BSelectionRule kRules[] = {
    BSelectionRule::kMinEbar, BSelectionRule::kMinPeakPa,
    BSelectionRule::kMinTotalPa, BSelectionRule::kMinTotalEnergy};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field of a plan as raw bits, so EXPECT_EQ is a bitwise compare.
std::vector<std::uint64_t> plan_bits(const UnderlayHopPlan& p) {
  std::vector<std::uint64_t> out{p.config.mt, p.config.mr,
                                 static_cast<std::uint64_t>(p.b)};
  for (const double x :
       {p.config.hop_distance_m, p.config.cluster_diameter_m, p.config.ber,
        p.config.bandwidth_hz, p.ebar, p.local_tx_pa, p.mimo_tx_pa,
        p.local_tx_circuit, p.local_rx, p.mimo_tx_circuit, p.mimo_rx}) {
    out.push_back(bits(x));
  }
  return out;
}

std::vector<std::uint64_t> report_bits(const RouteReport& r) {
  std::vector<std::uint64_t> out{bits(r.total_energy_per_bit),
                                 bits(r.peak_pa_per_bit), r.hops.size()};
  for (const RouteHop& h : r.hops) {
    out.push_back(h.from);
    out.push_back(h.to);
    out.push_back(static_cast<std::uint64_t>(h.kind));
    const auto p = plan_bits(h.plan);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// The hop planner before the memo: every plan re-solves ē_b once per b.
class PerBSolvePlanner {
 public:
  UnderlayHopPlan plan(const UnderlayHopConfig& config,
                       BSelectionRule rule = BSelectionRule::kMinTotalPa)
      const {
    COMIMO_CHECK(config.mt >= 1 && config.mr >= 1, "need >= 1 node per side");
    COMIMO_CHECK(config.hop_distance_m > 0.0, "hop distance must be positive");
    COMIMO_CHECK(config.cluster_diameter_m >= 0.0,
                 "negative cluster diameter");
    UnderlayHopPlan best;
    double best_score = std::numeric_limits<double>::infinity();
    bool found = false;
    for (int b = kMinConstellationBits; b <= kMaxConstellationBits; ++b) {
      UnderlayHopPlan c;
      c.config = config;
      c.b = b;
      try {
        c.ebar = solver_.solve(config.ber, b, config.mt, config.mr);
      } catch (const NumericError&) {
        continue;  // BER target unreachable at this b
      }
      c.local_tx_pa =
          local_.pa_energy(b, config.ber, config.cluster_diameter_m);
      c.local_tx_circuit = local_.tx_circuit_energy(b, config.bandwidth_hz);
      c.local_rx = local_.rx_energy(b, config.bandwidth_hz);
      c.mimo_tx_pa = mimo_.pa_energy_with_ebar(b, c.ebar, config.mt,
                                               config.hop_distance_m);
      c.mimo_tx_circuit = mimo_.tx_circuit_energy(b, config.bandwidth_hz);
      c.mimo_rx = mimo_.rx_energy(b, config.bandwidth_hz);
      double score = 0.0;
      switch (rule) {
        case BSelectionRule::kMinEbar:
          score = c.ebar;
          break;
        case BSelectionRule::kMinPeakPa:
          score = c.peak_pa();
          break;
        case BSelectionRule::kMinTotalPa:
          score = c.total_pa();
          break;
        case BSelectionRule::kMinTotalEnergy:
          score = c.total_energy();
          break;
      }
      if (score < best_score) {
        best_score = score;
        best = c;
        found = true;
      }
    }
    if (!found) throw InfeasibleError("no feasible constellation for this hop");
    return best;
  }

  UnderlayHopPlan replan_shrunk(const UnderlayHopPlan& plan,
                                unsigned alive_tx, unsigned alive_rx,
                                BSelectionRule rule) const {
    UnderlayHopConfig shrunk = plan.config;
    shrunk.mt = std::max(1u, std::min(shrunk.mt, alive_tx));
    shrunk.mr = std::max(1u, std::min(shrunk.mr, alive_rx));
    if (shrunk.mt == plan.config.mt && shrunk.mr == plan.config.mr) {
      return plan;
    }
    return this->plan(shrunk, rule);
  }

  /// CooperativeRouter::route with every hop planned by this oracle.
  RouteReport route(const CoMimoNet& net, const RoutingBackbone& backbone,
                    NodeId source, NodeId destination, double ber,
                    double bandwidth_hz) const {
    const auto path =
        backbone.path(net.cluster_of(source), net.cluster_of(destination));
    if (!path) throw InfeasibleError("no backbone path");
    RouteReport report;
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      const ClusterId a = (*path)[i];
      const ClusterId b = (*path)[i + 1];
      UnderlayHopConfig cfg;
      cfg.mt = static_cast<unsigned>(net.clusters()[a].size());
      cfg.mr = static_cast<unsigned>(net.clusters()[b].size());
      cfg.hop_distance_m = net.link_between(a, b)->length_m;
      cfg.cluster_diameter_m = std::max(
          {net.cluster_diameter_of(a), net.cluster_diameter_of(b), 1.0});
      cfg.ber = ber;
      cfg.bandwidth_hz = bandwidth_hz;
      RouteHop hop;
      hop.from = a;
      hop.to = b;
      hop.kind = net.link_kind(a, b);
      hop.plan = plan(cfg);
      report.total_energy_per_bit += hop.plan.total_energy();
      report.peak_pa_per_bit =
          std::max(report.peak_pa_per_bit, hop.plan.peak_pa());
      report.hops.push_back(std::move(hop));
    }
    return report;
  }

 private:
  EbBarSolver solver_;
  LocalEnergyModel local_;
  MimoEnergyModel mimo_;  // closed-form terms only; its memo stays empty
};

UnderlayHopConfig hop_config(unsigned mt, unsigned mr, double ber) {
  UnderlayHopConfig cfg;
  cfg.mt = mt;
  cfg.mr = mr;
  cfg.hop_distance_m = 180.0;
  cfg.cluster_diameter_m = 3.0;
  cfg.ber = ber;
  cfg.bandwidth_hz = 40e3;
  return cfg;
}

/// bench/net_scale's geometry with groups of 6 SUs, so the field holds
/// clusters of 5 and more members.
CoMimoNet big_cluster_net(std::size_t groups, std::uint64_t seed) {
  const double width = 150.0 * std::sqrt(static_cast<double>(groups));
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  return CoMimoNet(clustered_field(groups, 6, 5.0, width, width, seed), cfg);
}

/// Seeded node pairs whose clusters the backbone connects.
std::vector<std::pair<NodeId, NodeId>> connected_pairs(
    const CoMimoNet& net, const RoutingBackbone& backbone, std::size_t count,
    std::uint64_t seed) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  Rng pick(seed, 0x9A1E);
  const std::size_t n = net.nodes().size();
  while (pairs.size() < count) {
    const NodeId src = net.nodes()[pick.uniform_int(n)].id;
    const NodeId dst = net.nodes()[pick.uniform_int(n)].id;
    if (backbone.connected(net.cluster_of(src), net.cluster_of(dst))) {
      pairs.emplace_back(src, dst);
    }
  }
  return pairs;
}

TEST(EbBarMemoOracle, RouteReportsMatchPerBSolveOnClusteredField) {
  const CoMimoNet net = big_cluster_net(120, 19);
  const CooperativeRouter router(net, SystemParams{}, 1e-3, 40e3);
  const PerBSolvePlanner oracle;
  unsigned widest = 0;
  std::size_t hops = 0;
  for (const auto& [src, dst] :
       connected_pairs(net, router.backbone(), 40, 5)) {
    const RouteReport got = router.route(src, dst);
    const RouteReport want =
        oracle.route(net, router.backbone(), src, dst, 1e-3, 40e3);
    EXPECT_EQ(report_bits(got), report_bits(want))
        << "route " << src << " -> " << dst;
    for (const RouteHop& h : got.hops) {
      widest = std::max({widest, h.plan.config.mt, h.plan.config.mr});
    }
    hops += got.num_hops();
  }
  EXPECT_GT(hops, 100u);
  EXPECT_GE(widest, 5u) << "the field should route through big clusters";
}

TEST(EbBarMemoOracle, PlanAndReplanShrunkMatchUnderEveryRule) {
  const UnderlayCooperativeHop planner;
  const PerBSolvePlanner oracle;
  for (const double p : {1e-3, 0.2}) {
    for (const BSelectionRule rule : kRules) {
      for (unsigned mt = 1; mt <= 5; ++mt) {
        for (unsigned mr = 1; mr <= 5; ++mr) {
          const UnderlayHopConfig cfg = hop_config(mt, mr, p);
          const UnderlayHopPlan got = planner.plan(cfg, rule);
          const UnderlayHopPlan want = oracle.plan(cfg, rule);
          ASSERT_EQ(plan_bits(got), plan_bits(want))
              << "p " << p << " rule " << static_cast<int>(rule) << " "
              << mt << "x" << mr;
          if (p == 0.2) EXPECT_LE(got.b, 9);
          const std::pair<unsigned, unsigned> alive[] = {
              {mt - 1, mr}, {mt, mr - 1}, {1, 1}, {0, 0}, {mt, mr}};
          for (const auto& [tx, rx] : alive) {
            EXPECT_EQ(plan_bits(planner.replan_shrunk(got, tx, rx, rule)),
                      plan_bits(oracle.replan_shrunk(want, tx, rx, rule)))
                << "p " << p << " " << mt << "x" << mr << " alive " << tx
                << "x" << rx;
          }
        }
      }
    }
  }
}

TEST(EbBarMemoOracle, UnreachableConstellationsStayNumericErrors) {
  // At p = 0.2 no b >= 10 can meet the target (zero energy already gives
  // a lower BER there): solve throws NumericError, the row marks those b
  // unreachable, and per-b readers still see the NumericError that
  // ConstellationOptimizer::minimize skips.
  const EbBarSolver solver;
  const MimoEnergyModel model;
  for (unsigned mt = 1; mt <= 4; ++mt) {
    for (unsigned mr = 1; mr <= 4; ++mr) {
      const EbBarRow row = model.ebar_row(0.2, mt, mr);
      for (int b = kMinConstellationBits; b <= kMaxConstellationBits; ++b) {
        if (b >= 10) {
          EXPECT_FALSE(row.reachable(b)) << b;
          EXPECT_THROW((void)solver.solve(0.2, b, mt, mr), NumericError);
          EXPECT_THROW((void)model.ebar(0.2, b, mt, mr), NumericError);
          EXPECT_THROW((void)model.pa_energy(b, 0.2, mt, mr, 100.0),
                       NumericError);
        } else {
          ASSERT_TRUE(row.reachable(b)) << b;
          EXPECT_EQ(bits(row.at(b)), bits(solver.solve(0.2, b, mt, mr)));
        }
      }
    }
  }
  EXPECT_THROW((void)model.ebar(1e-3, 0, 2, 2), InvalidArgument);
  EXPECT_THROW((void)model.ebar(1e-3, kMaxConstellationBits + 1, 2, 2),
               InvalidArgument);
  EXPECT_THROW((void)ConstellationOptimizer(SystemParams{}, 1, 17),
               InvalidArgument);

  // The optimizer's search equals the per-b solve/catch loop.
  const ConstellationOptimizer opt;
  for (const double p : {1e-3, 0.2}) {
    for (const auto& [mt, mr] : {std::pair{1u, 1u}, {2u, 3u}, {4u, 1u}}) {
      const ConstellationChoice got =
          opt.min_mimo_tx_energy(p, mt, mr, 150.0, 40e3);
      int best_b = 0;
      double best = std::numeric_limits<double>::infinity();
      for (int b = kMinConstellationBits; b <= kMaxConstellationBits; ++b) {
        double ebar = 0.0;
        try {
          ebar = solver.solve(p, b, mt, mr);
        } catch (const NumericError&) {
          continue;
        }
        const double v = model.pa_energy_with_ebar(b, ebar, mt, 150.0) +
                         model.tx_circuit_energy(b, 40e3);
        if (v < best) {
          best = v;
          best_b = b;
        }
      }
      EXPECT_EQ(got.b, best_b) << p << " " << mt << "x" << mr;
      EXPECT_EQ(bits(got.value), bits(best)) << p << " " << mt << "x" << mr;
    }
  }
}

TEST(EbBarMemoOracle, InvalidTargetThrowsAndIsNeverCached) {
  const UnderlayCooperativeHop planner;
  const PerBSolvePlanner oracle;
  const MimoEnergyModel model;
  for (const double p :
       {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const UnderlayHopConfig cfg = hop_config(2, 2, p);
    // A cached bad key would stop throwing on the second pass.
    for (int pass = 0; pass < 2; ++pass) {
      EXPECT_THROW((void)planner.plan(cfg), InvalidArgument) << p;
      EXPECT_THROW((void)oracle.plan(cfg), InvalidArgument) << p;
      EXPECT_THROW((void)model.ebar_row(p, 2, 2), InvalidArgument) << p;
      EXPECT_THROW((void)model.pa_energy(2, p, 2, 2, 100.0), InvalidArgument)
          << p;
    }
  }
  EXPECT_THROW((void)model.ebar_row(1e-3, 0, 2), InvalidArgument);
  EXPECT_THROW((void)model.ebar_row(1e-3, 2, 0), InvalidArgument);
  const UnderlayHopConfig ok = hop_config(2, 2, 1e-3);
  EXPECT_EQ(plan_bits(planner.plan(ok)), plan_bits(oracle.plan(ok)));
}

constexpr unsigned kThreads = 4;

/// Runs job(t, k) for every item k on each of kThreads threads, thread t
/// starting at its own offset, so the threads hit the same rows at once.
/// A job's exception is rethrown here after every thread has joined.
template <typename Job>
void run_interleaved(std::size_t items, const Job& job) {
  std::vector<std::exception_ptr> errors(kThreads);
  {
    std::vector<std::jthread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&job, &errors, items, t] {
        try {
          for (std::size_t i = 0; i < items; ++i) {
            job(t, (i + t * items / kThreads) % items);
          }
        } catch (...) {
          errors[t] = std::current_exception();
        }
      });
    }
  }  // the jthreads join here
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

TEST(EbBarMemoConcurrency, SharedPlannerMatchesSerialPlans) {
  std::vector<std::pair<UnderlayHopConfig, BSelectionRule>> jobs;
  for (const double p : {1e-3, 1e-2}) {
    for (unsigned mt = 1; mt <= 6; ++mt) {
      for (unsigned mr = 1; mr <= 6; ++mr) {
        jobs.emplace_back(hop_config(mt, mr, p),
                          kRules[(mt + mr) % std::size(kRules)]);
      }
    }
  }
  const UnderlayCooperativeHop serial;
  std::vector<UnderlayHopPlan> want;
  for (const auto& [cfg, rule] : jobs) want.push_back(serial.plan(cfg, rule));

  const UnderlayCooperativeHop shared;  // cold: the threads fill its memo
  std::vector<std::vector<UnderlayHopPlan>> got(
      kThreads, std::vector<UnderlayHopPlan>(jobs.size()));
  run_interleaved(jobs.size(), [&](unsigned t, std::size_t k) {
    got[t][k] = shared.plan(jobs[k].first, jobs[k].second);
  });
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      EXPECT_EQ(plan_bits(got[t][k]), plan_bits(want[k]))
          << "thread " << t << " job " << k;
    }
  }
}

TEST(EbBarMemoConcurrency, SharedRouterMatchesSerialRoutes) {
  const CoMimoNet net = big_cluster_net(60, 23);
  const CooperativeRouter serial(net, SystemParams{}, 1e-3, 40e3);
  const auto pairs = connected_pairs(net, serial.backbone(), 24, 8);
  std::vector<RouteReport> want;
  for (const auto& [src, dst] : pairs) want.push_back(serial.route(src, dst));

  const CooperativeRouter shared(net, SystemParams{}, 1e-3, 40e3);
  std::vector<std::vector<RouteReport>> got(
      kThreads, std::vector<RouteReport>(pairs.size()));
  run_interleaved(pairs.size(), [&](unsigned t, std::size_t k) {
    got[t][k] = shared.route(pairs[k].first, pairs[k].second);
  });
  for (unsigned t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      EXPECT_EQ(report_bits(got[t][k]), report_bits(want[k]))
          << "thread " << t << " route " << k;
    }
  }
}

}  // namespace
}  // namespace comimo
