// Large-n scale checks for the grid-indexed network engine.  These run
// well beyond unit-test sizes (up to 10⁶ SUs), so they are built into
// their own `comimo_netscale_tests` binary (ctest label `netscale`,
// excluded from the default run) and additionally skip unless
// COMIMO_NETSCALE=1 — CI sets it; locally they are opt-in.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "comimo/net/comimonet.h"
#include "comimo/net/routing.h"
#include "comimo/net/spanning_tree.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"
#include "net_equality.h"

namespace comimo {
namespace {

bool netscale_enabled() {
  const char* v = std::getenv("COMIMO_NETSCALE");
  return v != nullptr && v[0] == '1';
}

#define COMIMO_REQUIRE_NETSCALE()                                   \
  if (!netscale_enabled()) {                                        \
    GTEST_SKIP() << "set COMIMO_NETSCALE=1 to run scale tests";     \
  }

// Grouped geometry scaled so link counts stay near-linear in n: groups
// of ~4 nodes, field width 150·sqrt(groups) keeps group density (and
// thus backbone degree) constant as n grows.
std::vector<SuNode> scale_field(std::size_t n, std::uint64_t seed) {
  const std::size_t groups = std::max<std::size_t>(1, n / 4);
  const double width = 150.0 * std::sqrt(static_cast<double>(groups));
  return clustered_field(groups, 4, 5.0, width, width, seed);
}

CoMimoNetConfig scale_config() {
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  cfg.index_mode = NetIndexMode::kGrid;
  return cfg;
}

TEST(NetScale, HundredThousandNodesClusterRouteAndStayBounded) {
  COMIMO_REQUIRE_NETSCALE();
  const std::size_t n = 100'000;
  const auto nodes = scale_field(n, 21);
  const CoMimoNet net(nodes, scale_config());
  EXPECT_EQ(net.nodes().size(), n);
  EXPECT_GT(net.clusters().size(), n / 8);
  EXPECT_GT(net.links().size(), net.clusters().size() / 2);
  // Bounded memory: the engine must stay O(n) with a small constant.
  EXPECT_LE(net.approx_bytes() / n, std::size_t{512});
  const RoutingBackbone backbone(net);
  EXPECT_EQ(backbone.tree_edges().size(),
            net.clusters().size() - backbone.num_components());
}

TEST(NetScale, MillionNodesAdmittedAndIncrementallyRecustered) {
  COMIMO_REQUIRE_NETSCALE();
  const std::size_t n = 1'000'000;
  const auto nodes = scale_field(n, 42);
  CoMimoNet net(nodes, scale_config());
  ASSERT_EQ(net.nodes().size(), n);
  EXPECT_LE(net.approx_bytes() / n, std::size_t{512});

  const RoutingBackbone backbone(net);
  EXPECT_GT(backbone.tree_edges().size(), 0u);

  // A kill wave at the million-node scale must go through the
  // incremental path and leave the invariants intact.
  std::vector<NodeId> kill;
  for (NodeId id = 5; id < 2000; id += 13) kill.push_back(id);
  net.remove_nodes(kill);
  EXPECT_EQ(net.nodes().size(), n - kill.size());
  ASSERT_TRUE(net.validate());
}

// The perfbench `net` workload's kill scenario: five waves of 2 000
// distinct SUs on the 10⁵-SU field.  After every wave the incremental
// net must equal a from-scratch build, and the wave may dissolve no
// more clusters than it kills SUs (it used to dissolve 10 347–32 764 of
// about 33 000).
TEST(NetScale, PerfbenchKillWavesMatchRebuildAndStayLocal) {
  COMIMO_REQUIRE_NETSCALE();
  const std::size_t n = 100'000;
  const CoMimoNetConfig cfg = scale_config();
  CoMimoNet net(scale_field(n, 42), cfg);

  // perfbench's victim stream: derive_seed(42, 302).
  std::uint64_t state = 42 ^ (0x9e3779b97f4a7c15ULL * 303);
  (void)splitmix64(state);
  Rng kill(splitmix64(state));
  std::set<NodeId> dead;
  obs::set_enabled(true);
  const obs::Counter dissolved =
      obs::MetricRegistry::global().counter("net.clusters_dissolved");
  for (int w = 0; w < 5; ++w) {
    std::vector<NodeId> wave;
    while (wave.size() < 2000) {
      const auto id = static_cast<NodeId>(kill.uniform_int(n));
      if (dead.insert(id).second) wave.push_back(id);
    }
    const std::uint64_t before = dissolved.value();
    net.remove_nodes(wave);
    if (obs::enabled()) {  // false when obs is compiled out
      EXPECT_LE(dissolved.value() - before, wave.size()) << "wave " << w;
    }
    expect_same_net(net, CoMimoNet(net.nodes(), cfg),
                    "wave " + std::to_string(w));
    if (::testing::Test::HasFatalFailure()) break;
  }
  obs::set_enabled(false);
}

// At a mid scale the grid engine must still match the O(n²) reference
// exactly — the differential contract does not decay with n.
TEST(NetScale, MidScaleGridStillBitIdenticalToReference) {
  COMIMO_REQUIRE_NETSCALE();
  const std::size_t n = 4096;
  const auto nodes = scale_field(n, 7);
  CoMimoNetConfig grid_cfg = scale_config();
  CoMimoNetConfig ref_cfg = scale_config();
  ref_cfg.index_mode = NetIndexMode::kReference;
  const CoMimoNet grid(nodes, grid_cfg);
  const CoMimoNet ref(nodes, ref_cfg);
  ASSERT_EQ(grid.clusters().size(), ref.clusters().size());
  for (std::size_t c = 0; c < grid.clusters().size(); ++c) {
    ASSERT_EQ(grid.clusters()[c].members, ref.clusters()[c].members);
    ASSERT_EQ(grid.clusters()[c].head, ref.clusters()[c].head);
  }
  ASSERT_EQ(grid.links().size(), ref.links().size());
  for (std::size_t l = 0; l < grid.links().size(); ++l) {
    ASSERT_EQ(grid.links()[l].a, ref.links()[l].a);
    ASSERT_EQ(grid.links()[l].b, ref.links()[l].b);
    ASSERT_EQ(grid.links()[l].length_m, ref.links()[l].length_m);
  }
}

}  // namespace
}  // namespace comimo
