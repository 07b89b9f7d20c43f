// Locality and exactness of the incremental remove_nodes() path.
//
// A kill wave may dissolve an old cluster only where a freed SU can
// reach it: when the cluster's seed is the next greedy seed, it is
// copied verbatim unless a pending free agent lies within d/2 of that
// seed.  ReclusterLocality pins the dissolved count (read from the
// `net.clusters_dissolved` obs counter) on two bench-geometry fields
// and walks a hand-placed field through both branches; ReclusterFuzz
// compares mid-size clustered fields against a from-scratch build after
// every wave.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "comimo/net/comimonet.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"
#include "net_equality.h"

namespace comimo {
namespace {

CoMimoNetConfig wave_config() {
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  cfg.index_mode = NetIndexMode::kGrid;
  return cfg;
}

// bench/net_scale's geometry: groups of 4 SUs within 5 m, field width
// 150·sqrt(groups), seed 42.
std::vector<SuNode> net_scale_field(std::size_t n) {
  const std::size_t groups = n / 4;
  const double width = 150.0 * std::sqrt(static_cast<double>(groups));
  return clustered_field(groups, 4, 5.0, width, width, 42);
}

// `count` distinct ids of the current survivors, drawn from `rng`.
std::vector<NodeId> pick_victims(const CoMimoNet& net, std::size_t count,
                                 Rng& rng) {
  std::set<NodeId> picked;
  std::vector<NodeId> out;
  while (out.size() < count) {
    const NodeId id = net.nodes()[rng.uniform_int(net.nodes().size())].id;
    if (picked.insert(id).second) out.push_back(id);
  }
  return out;
}

class ReclusterLocality : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef COMIMO_OBS_DISABLED
    GTEST_SKIP() << "the dissolved count is an obs counter";
#endif
    obs::set_enabled(true);
  }
  void TearDown() override { obs::set_enabled(false); }

  // Runs one wave and returns how many old clusters it dissolved.
  static std::uint64_t dissolved_by(CoMimoNet& net,
                                    const std::vector<NodeId>& kill) {
    const obs::Counter dissolved =
        obs::MetricRegistry::global().counter("net.clusters_dissolved");
    const std::uint64_t before = dissolved.value();
    net.remove_nodes(kill);
    return dissolved.value() - before;
  }
};

TEST_F(ReclusterLocality, TenPercentWaveOnTenThousandSuField) {
  const auto cfg = wave_config();
  CoMimoNet net(net_scale_field(10'000), cfg);
  Rng rng(7);
  const std::vector<NodeId> kill = pick_victims(net, 1000, rng);
  // Dissolving every cluster between a freed SU and its index used to
  // take 1 644 clusters here.
  EXPECT_LE(dissolved_by(net, kill), kill.size());
  expect_same_net(net, CoMimoNet(net.nodes(), cfg), "10^4 wave");
}

TEST_F(ReclusterLocality, NetScaleKillListOnHundredThousandSuField) {
  const std::size_t n = 100'000;
  const auto cfg = wave_config();
  CoMimoNet net(net_scale_field(n), cfg);
  // bench/net_scale's wave: n/500 ids from 3 in steps of 479.
  std::vector<NodeId> kill;
  for (NodeId id = 3; kill.size() < n / 500; id += 479) {
    kill.push_back(id % static_cast<NodeId>(n));
  }
  // It used to dissolve 11 598 of about 33 000 clusters.
  EXPECT_LE(dissolved_by(net, kill), kill.size());
  expect_same_net(net, CoMimoNet(net.nodes(), cfg), "10^5 wave");
}

// Index order and positions (d/2 = 7 m) put both branches in one wave:
//   0 X seed (0, 0)       1 B seed (100, 0)   2 B (103, 0)
//   3 C seed (12, 0)      4 X (6, 0)          5 C (15, 0)
//   6 X (-6, 0)
// Killing node 0 dissolves X and frees 4 and 6; node 6, far ahead in
// index order, keeps the free-agent heap non-empty to the end.  B's
// seed precedes every free agent and none lies within 7 m of it, so B
// copies verbatim.  C's seed precedes them too, but free agent 4 lies
// 6 m from it: C must dissolve and re-form as {3, 4, 5}.
TEST_F(ReclusterLocality, FarAheadFreeAgentCopiesBetweenAndAbsorbsNear) {
  const std::vector<Vec2> where{{0.0, 0.0},  {100.0, 0.0}, {103.0, 0.0},
                                {12.0, 0.0}, {6.0, 0.0},   {15.0, 0.0},
                                {-6.0, 0.0}};
  std::vector<SuNode> nodes;
  for (std::size_t i = 0; i < where.size(); ++i) {
    SuNode node;
    node.id = static_cast<NodeId>(i);
    node.position = where[i];
    node.battery_j = 1.0 - 0.01 * static_cast<double>(i);
    nodes.push_back(node);
  }
  const auto cfg = wave_config();
  CoMimoNet net(nodes, cfg);
  ASSERT_EQ(net.clusters().size(), 3u);
  ASSERT_EQ(net.clusters()[0].members, (std::vector<NodeId>{0, 4, 6}));
  ASSERT_EQ(net.clusters()[1].members, (std::vector<NodeId>{1, 2}));
  ASSERT_EQ(net.clusters()[2].members, (std::vector<NodeId>{3, 5}));

  // X (dead seed) and C (reached by node 4) dissolve; B does not.
  EXPECT_EQ(dissolved_by(net, {0}), 2u);
  ASSERT_EQ(net.clusters().size(), 3u);
  EXPECT_EQ(net.clusters()[0].members, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(net.clusters()[1].members, (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(net.clusters()[2].members, (std::vector<NodeId>{6}));
  expect_same_net(net, CoMimoNet(net.nodes(), cfg), "hand-placed");
}

// Mid-size clustered fields, three 10 % waves each with battery drift
// before every wave; the incremental net must equal a from-scratch
// build after every wave.  Group sizes and spreads vary with the seed
// so free agents often land within d/2 of another cluster's seed.
class ReclusterFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReclusterFuzz, TenPercentWavesMatchRebuild) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed, 0x10CA1);
  const std::size_t n = 2000 + rng.uniform_int(8001);
  const std::size_t per_group = 3 + seed % 4;
  const double spread = 5.0 + static_cast<double>(seed % 3);
  const std::size_t groups = n / per_group;
  const double width = 120.0 * std::sqrt(static_cast<double>(groups));
  const auto cfg = wave_config();
  CoMimoNet net(
      clustered_field(groups, per_group, spread, width, width, seed), cfg);

  for (int wave = 0; wave < 3; ++wave) {
    for (int k = 0; k < 20; ++k) {
      const NodeId id = net.nodes()[rng.uniform_int(net.nodes().size())].id;
      net.mutable_node(id).battery_j -= rng.uniform(0.0, 0.4);
    }
    net.reelect_heads();
    net.remove_nodes(pick_victims(net, net.nodes().size() / 10, rng));

    const std::string label =
        "seed " + std::to_string(seed) + " wave " + std::to_string(wave);
    ASSERT_TRUE(net.validate()) << label;
    expect_same_net(net, CoMimoNet(net.nodes(), cfg), label);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReclusterFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace comimo
