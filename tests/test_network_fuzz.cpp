// Seed-sweep fuzzing of the network stack: for many random fields the
// §2.1 invariants, backbone properties, routing consistency and energy
// accounting must all hold.  The kill/preempt sweeps additionally pin
// the incremental remove_nodes() path to a from-scratch rebuild after
// every event, and the ensemble sweep pins N-thread sharded lifetime
// runs to the 1-thread result bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/net/lifetime.h"
#include "comimo/net/routing.h"
#include "comimo/numeric/rng.h"
#include "net_equality.h"

namespace comimo {
namespace {

class NetworkFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkFuzz, InvariantsHoldOnRandomFields) {
  const std::uint64_t seed = GetParam();
  // Alternate uniform and grouped placements.
  const auto nodes =
      (seed % 2 == 0)
          ? random_field(40 + seed % 30, 400.0, 400.0, seed)
          : clustered_field(8 + seed % 8, 1 + seed % 4, 6.0, 400.0, 400.0,
                            seed);
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  CoMimoNet net(nodes, cfg);

  // §2.1 invariants.
  ASSERT_TRUE(net.validate()) << "seed " << seed;

  // Backbone: tree size, unique paths, symmetric connectivity.
  const RoutingBackbone backbone(net);
  EXPECT_EQ(backbone.tree_edges().size(),
            net.clusters().size() - backbone.num_components());
  for (const auto& e : backbone.tree_edges()) {
    EXPECT_TRUE(backbone.connected(e.a, e.b));
    EXPECT_LE(e.length_m, cfg.link_range_m);
  }

  // Route every 7th pair; check hop chaining and positive energies.
  const CooperativeRouter router(net, SystemParams{}, 1e-3, 40e3);
  const std::size_t n = net.nodes().size();
  for (std::size_t i = 0; i < n; i += 7) {
    for (std::size_t j = 3; j < n; j += 11) {
      const ClusterId ca = net.cluster_of(static_cast<NodeId>(i));
      const ClusterId cb = net.cluster_of(static_cast<NodeId>(j));
      if (!backbone.connected(ca, cb)) {
        EXPECT_THROW((void)router.route(static_cast<NodeId>(i),
                                        static_cast<NodeId>(j)),
                     InfeasibleError);
        continue;
      }
      const RouteReport r =
          router.route(static_cast<NodeId>(i), static_cast<NodeId>(j));
      ClusterId prev = ca;
      for (const auto& hop : r.hops) {
        EXPECT_EQ(hop.from, prev);
        EXPECT_GT(hop.plan.total_energy(), 0.0);
        EXPECT_LE(hop.plan.peak_pa(),
                  hop.plan.total_pa() * (1.0 + 1e-12));
        prev = hop.to;
      }
      if (!r.hops.empty()) EXPECT_EQ(prev, cb);
    }
  }

  // Battery drain never increases any battery and the re-election
  // keeps heads inside their clusters.
  CoMimoNet drained = net;
  bool routed = false;
  for (std::size_t j = 1; j < n && !routed; ++j) {
    if (backbone.connected(net.cluster_of(0),
                           net.cluster_of(static_cast<NodeId>(j)))) {
      const RouteReport r = router.route(0, static_cast<NodeId>(j));
      router.apply_battery_drain(drained, r, 1e5);
      routed = true;
    }
  }
  for (const auto& node : net.nodes()) {
    EXPECT_LE(drained.node(node.id).battery_j, node.battery_j + 1e-15);
  }
  drained.reelect_heads();
  EXPECT_TRUE(drained.validate());
}

// Seeded kill/preempt fuzz: random node deaths (even waves) alternate
// with PU-style region preemptions that wipe a whole cluster (odd
// waves).  After EVERY event, the incrementally maintained net must
// equal a from-scratch recompute over the survivors — in both index
// modes — and the two modes must agree with each other.
TEST_P(NetworkFuzz, KillPreemptIncrementalMatchesRebuild) {
  const std::uint64_t seed = GetParam();
  const auto nodes = (seed % 2 == 0)
                         ? random_field(90 + seed % 40, 450.0, 450.0, seed)
                         : clustered_field(20 + seed % 10, 4, 6.0, 450.0,
                                           450.0, seed);
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  cfg.index_mode = NetIndexMode::kGrid;
  CoMimoNet grid(nodes, cfg);
  CoMimoNetConfig ref_cfg = cfg;
  ref_cfg.index_mode = NetIndexMode::kReference;
  CoMimoNet ref(nodes, ref_cfg);

  Rng rng(seed, 0xFA11);
  for (int wave = 0; wave < 6 && grid.nodes().size() > 8; ++wave) {
    // Drift batteries so later head elections are non-trivial.
    for (int k = 0; k < 5; ++k) {
      const auto& pick =
          grid.nodes()[rng.uniform_int(grid.nodes().size())];
      const double drain = rng.uniform(0.0, 0.4);
      grid.mutable_node(pick.id).battery_j -= drain;
      ref.mutable_node(pick.id).battery_j -= drain;
    }
    grid.reelect_heads();
    ref.reelect_heads();

    std::vector<NodeId> kill;
    if (wave % 2 == 0) {
      const std::size_t count = 1 + rng.uniform_int(4);
      for (std::size_t k = 0; k < count; ++k) {
        kill.push_back(
            grid.nodes()[rng.uniform_int(grid.nodes().size())].id);
      }
    } else {
      // PU preemption: a primary user claims a region — the whole
      // cluster it lands on goes dark at once.
      const auto& victim =
          grid.clusters()[rng.uniform_int(grid.clusters().size())];
      kill = victim.members;
    }
    if (kill.size() >= grid.nodes().size()) continue;

    grid.remove_nodes(kill);
    ref.remove_nodes(kill);

    const std::string label =
        "seed " + std::to_string(seed) + " wave " + std::to_string(wave);
    ASSERT_TRUE(grid.validate()) << label;
    ASSERT_TRUE(ref.validate()) << label;

    // Incremental == from-scratch over the survivors, per mode.
    const CoMimoNet full_grid(grid.nodes(), cfg);
    const CoMimoNet full_ref(ref.nodes(), ref_cfg);
    expect_same_net(grid, full_grid, label + " grid-vs-rebuild");
    expect_same_net(ref, full_ref, label + " ref-vs-rebuild");
    // And the grid mode tracks the O(n²) reference exactly.
    expect_same_net(grid, ref, label + " grid-vs-ref");
  }
}

// The sharded lifetime ensemble must be a pure function of
// (net, params, config) — the same report, bit for bit, on a 1-thread
// pool and a many-thread pool (chunk-ordinal deterministic merge).
TEST_P(NetworkFuzz, LifetimeEnsembleThreadCountInvariant) {
  const std::uint64_t seed = GetParam();
  const auto nodes =
      clustered_field(8 + seed % 5, 3, 6.0, 400.0, 400.0, seed);
  CoMimoNetConfig net_cfg;
  net_cfg.communication_range_m = 40.0;
  net_cfg.cluster_diameter_m = 16.0;
  net_cfg.link_range_m = 280.0;
  const CoMimoNet net(nodes, net_cfg);

  LifetimeEnsembleConfig cfg;
  cfg.trials = 8;
  cfg.seed = seed;
  cfg.chunk_size = 3;  // same shard partition on both pools
  cfg.base.round_cap = 120;
  cfg.base.bits_per_round = 2e5;
  if (seed % 2 == 1) {
    cfg.base.faults.enabled = true;
    cfg.base.faults.node_death_fraction = 0.1;
    cfg.base.faults.death_window_lo = 0.05;
    cfg.base.faults.death_window_hi = 0.6;
    cfg.base.faults.slot_erasure_prob = 0.05;
  }

  ThreadPool single(1);
  ThreadPool many(4);
  cfg.pool = &single;
  const LifetimeEnsembleReport one = simulate_lifetime_ensemble(
      net, SystemParams{}, cfg);
  cfg.pool = &many;
  const LifetimeEnsembleReport n = simulate_lifetime_ensemble(
      net, SystemParams{}, cfg);

  EXPECT_TRUE(one.rounds_to_first_death == n.rounds_to_first_death);
  EXPECT_TRUE(one.rounds_to_death_fraction == n.rounds_to_death_fraction);
  EXPECT_TRUE(one.min_battery_j == n.min_battery_j);
  EXPECT_TRUE(one.dead_nodes == n.dead_nodes);
  EXPECT_EQ(one.censored_trials, n.censored_trials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace comimo
