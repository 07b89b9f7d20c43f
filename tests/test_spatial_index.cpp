// Differential property suite for the spatial grid index (ISSUE 7).
//
// The contract under test: every grid-indexed network computation —
// d-clustering, head election, cooperative-link derivation, MST
// backbone, adjacency queries — is *bit-identical* to the O(n²)
// reference implementation (NetIndexMode::kReference), across
// randomized topologies (uniform, clustered, collinear,
// duplicate-position) and sizes n ∈ {1..512}, including tie-break
// order at cell boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "comimo/common/error.h"
#include "comimo/net/clustering.h"
#include "comimo/net/comimonet.h"
#include "comimo/net/spanning_tree.h"
#include "comimo/net/spatial_index.h"
#include "comimo/numeric/rng.h"

namespace comimo {
namespace {

CoMimoNetConfig base_config(NetIndexMode mode) {
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 45.0;
  cfg.cluster_diameter_m = 14.0;
  cfg.link_range_m = 220.0;
  cfg.index_mode = mode;
  return cfg;
}

void expect_identical(const CoMimoNet& ref, const CoMimoNet& grid,
                      const std::string& label) {
  ASSERT_EQ(ref.clusters().size(), grid.clusters().size()) << label;
  for (std::size_t i = 0; i < ref.clusters().size(); ++i) {
    const auto& a = ref.clusters()[i];
    const auto& b = grid.clusters()[i];
    EXPECT_EQ(a.id, b.id) << label << " cluster " << i;
    EXPECT_EQ(a.head, b.head) << label << " cluster " << i;
    ASSERT_EQ(a.members, b.members) << label << " cluster " << i;
  }
  ASSERT_EQ(ref.links().size(), grid.links().size()) << label;
  for (std::size_t i = 0; i < ref.links().size(); ++i) {
    EXPECT_EQ(ref.links()[i].a, grid.links()[i].a) << label << " link " << i;
    EXPECT_EQ(ref.links()[i].b, grid.links()[i].b) << label << " link " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(ref.links()[i].length_m, grid.links()[i].length_m)
        << label << " link " << i;
  }
  // Adjacency queries reproduce the reference scan order.
  for (ClusterId c = 0; c < static_cast<ClusterId>(ref.clusters().size());
       ++c) {
    EXPECT_EQ(ref.neighbors(c), grid.neighbors(c)) << label << " c=" << c;
  }
  // MST backbone is a pure function of the links, but assert anyway:
  // the routing layer consumes the backbone, not the links.
  const RoutingBackbone bref(ref);
  const RoutingBackbone bgrid(grid);
  ASSERT_EQ(bref.tree_edges().size(), bgrid.tree_edges().size()) << label;
  for (std::size_t i = 0; i < bref.tree_edges().size(); ++i) {
    EXPECT_EQ(bref.tree_edges()[i].a, bgrid.tree_edges()[i].a) << label;
    EXPECT_EQ(bref.tree_edges()[i].b, bgrid.tree_edges()[i].b) << label;
    EXPECT_EQ(bref.tree_edges()[i].length_m, bgrid.tree_edges()[i].length_m)
        << label;
  }
  EXPECT_EQ(bref.num_components(), bgrid.num_components()) << label;
}

void expect_both_modes_identical(const std::vector<SuNode>& nodes,
                                 const std::string& label) {
  const CoMimoNet ref(nodes, base_config(NetIndexMode::kReference));
  const CoMimoNet grid(nodes, base_config(NetIndexMode::kGrid));
  ASSERT_TRUE(ref.validate()) << label;
  ASSERT_TRUE(grid.validate()) << label;
  expect_identical(ref, grid, label);
}

// ---------------------------------------------------------------- //
// SpatialGrid primitive vs brute force                              //
// ---------------------------------------------------------------- //

TEST(SpatialGrid, QueryMatchesBruteForceOnRandomPoints) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed, 7);
    const std::size_t n = 1 + rng.uniform_int(400);
    std::vector<Vec2> pts(n);
    for (auto& p : pts) {
      p = Vec2{rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0)};
    }
    const SpatialGrid grid(pts, 10.0);
    for (int q = 0; q < 50; ++q) {
      const Vec2 center{rng.uniform(-50.0, 350.0), rng.uniform(-50.0, 350.0)};
      const double radius = rng.uniform(0.5, 80.0);
      std::vector<std::uint32_t> got;
      grid.query(center, radius, got);
      std::sort(got.begin(), got.end());
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (distance(center, pts[i]) <= radius) want.push_back(i);
      }
      ASSERT_EQ(got, want) << "seed " << seed << " query " << q;
    }
  }
}

TEST(SpatialGrid, RemoveTombstonesWithoutDisturbingOthers) {
  Rng rng(3, 11);
  std::vector<Vec2> pts(120);
  for (auto& p : pts) {
    p = Vec2{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
  }
  SpatialGrid grid(pts, 8.0);
  EXPECT_EQ(grid.live_items(), pts.size());
  std::vector<bool> removed(pts.size(), false);
  for (std::uint32_t k = 0; k < 60; ++k) {
    const std::uint32_t victim = rng.uniform_int(120);
    if (!removed[victim]) {
      grid.remove(victim, pts[victim]);
      removed[victim] = true;
    }
    // Re-removal is a no-op.
    grid.remove(victim, pts[victim]);
  }
  const std::size_t expected_live = static_cast<std::size_t>(
      std::count(removed.begin(), removed.end(), false));
  EXPECT_EQ(grid.live_items(), expected_live);
  std::vector<std::uint32_t> got;
  grid.query(Vec2{50.0, 50.0}, 1000.0, got);
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!removed[i]) want.push_back(i);
  }
  EXPECT_EQ(got, want);
}

// Daemon-grade churn: kill waves far past the tombstone threshold must
// trigger compaction — dead slots can never outnumber live ones (past
// the small floor), queries stay exactly brute-force-equal over the
// survivors, and the footprint stays proportional to the live
// population instead of the all-time insert count.
TEST(SpatialGrid, ChurnCompactionBoundsDeadSlotsAndPreservesQueries) {
  Rng rng(17, 23);
  const std::size_t n = 4000;
  std::vector<Vec2> pts(n);
  for (auto& p : pts) {
    p = Vec2{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
  }
  SpatialGrid grid(pts, 10.0);
  std::vector<bool> removed(n, false);
  std::size_t live = n;

  for (int wave = 0; wave < 12; ++wave) {
    // Kill ~30% of the remaining population each wave.
    for (std::uint32_t k = 0; k < n && live > 32; ++k) {
      const std::uint32_t victim = rng.uniform_int(n);
      if (removed[victim]) continue;
      if (!rng.bernoulli(0.3)) continue;
      grid.remove(victim, pts[victim]);
      removed[victim] = true;
      --live;
    }
    ASSERT_EQ(grid.live_items(), live) << "wave " << wave;
    // The compaction invariant: tombstones never exceed the live
    // population once past the threshold floor.
    EXPECT_LE(grid.dead_items(), std::max<std::size_t>(grid.live_items(), 64))
        << "wave " << wave;
    // Exact-membership queries over the survivors, vs brute force.
    for (int q = 0; q < 20; ++q) {
      const Vec2 center{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
      const double radius = rng.uniform(1.0, 60.0);
      std::vector<std::uint32_t> got;
      grid.query(center, radius, got);
      std::sort(got.begin(), got.end());
      std::vector<std::uint32_t> want;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!removed[i] && distance(center, pts[i]) <= radius) {
          want.push_back(i);
        }
      }
      ASSERT_EQ(got, want) << "wave " << wave << " query " << q;
    }
  }

  // After 12 waves of ~30% kills only a sliver survives; the footprint
  // must track the survivors (slots + CSR offsets), not the original n.
  ASSERT_LT(grid.live_items(), n / 8);
  const std::size_t slot_bytes = 24;  // key + padded Vec2
  const std::size_t bound =
      (grid.live_items() + grid.dead_items()) * slot_bytes * 2 +
      (grid.num_cells() + 1) * sizeof(std::uint32_t) * 2 + 4096;
  EXPECT_LE(grid.bytes(), bound);
  // The ~2-cells/item cap holds against the population at the last
  // rebuild, which is exactly live + dead now — and dead <= live by the
  // compaction invariant, so cells stay O(live).
  EXPECT_LE(grid.num_cells(),
            2 * std::max<std::size_t>(
                    grid.live_items() + grid.dead_items(), 16) +
                2);
}

// An explicit compact() at a quiescent point is the same rebuild the
// threshold path runs: zero tombstones after, identical query sets.
TEST(SpatialGrid, ExplicitCompactDropsAllTombstones) {
  Rng rng(5, 31);
  std::vector<Vec2> pts(300);
  for (auto& p : pts) {
    p = Vec2{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
  }
  SpatialGrid grid(pts, 6.0);
  std::vector<bool> removed(pts.size(), false);
  for (std::uint32_t i = 0; i < 40; ++i) {  // below the auto threshold
    grid.remove(i, pts[i]);
    removed[i] = true;
  }
  EXPECT_EQ(grid.dead_items(), 40u);
  grid.compact();
  EXPECT_EQ(grid.dead_items(), 0u);
  EXPECT_EQ(grid.live_items(), pts.size() - 40);
  std::vector<std::uint32_t> got;
  grid.query(Vec2{25.0, 25.0}, 1000.0, got);
  std::sort(got.begin(), got.end());
  std::vector<std::uint32_t> want;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (!removed[i]) want.push_back(i);
  }
  EXPECT_EQ(got, want);
}

TEST(SpatialGrid, AnyWithinShortCircuits) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {5.0, 0.0}, {100.0, 100.0}};
  const SpatialGrid grid(pts, 10.0);
  EXPECT_TRUE(grid.any_within(Vec2{1.0, 0.0}, 2.0,
                              [](std::uint32_t) { return true; }));
  EXPECT_FALSE(grid.any_within(Vec2{50.0, 50.0}, 10.0,
                               [](std::uint32_t) { return true; }));
  // Predicate filters: only key 1 accepted.
  EXPECT_TRUE(grid.any_within(Vec2{0.0, 0.0}, 6.0,
                              [](std::uint32_t k) { return k == 1; }));
  EXPECT_FALSE(grid.any_within(Vec2{0.0, 0.0}, 3.0,
                               [](std::uint32_t k) { return k == 1; }));
}

TEST(SpatialGrid, DegenerateExtents) {
  // All points coincident: one cell, everything found.
  const std::vector<Vec2> same(37, Vec2{4.0, -2.0});
  const SpatialGrid grid(same, 5.0);
  std::vector<std::uint32_t> got;
  grid.query(Vec2{4.0, -2.0}, 0.0, got);
  EXPECT_EQ(got.size(), same.size());
  // Tiny cell hint on a huge extent: the cell budget clamps memory.
  std::vector<Vec2> spread;
  Rng rng(5, 1);
  for (int i = 0; i < 64; ++i) {
    spread.push_back(Vec2{rng.uniform(0.0, 1e6), rng.uniform(0.0, 1e6)});
  }
  const SpatialGrid wide(spread, 1e-3);
  EXPECT_LE(wide.num_cells(), std::size_t{4096});
  got.clear();
  wide.query(spread[10], 0.0, got);
  EXPECT_FALSE(got.empty());
}

// ---------------------------------------------------------------- //
// Differential: grid vs reference network construction              //
// ---------------------------------------------------------------- //

class SpatialIndexDifferential
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpatialIndexDifferential, UniformTopology) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_both_modes_identical(
        random_field(n, 400.0, 400.0, seed),
        "uniform n=" + std::to_string(n) + " seed=" + std::to_string(seed));
  }
}

TEST_P(SpatialIndexDifferential, ClusteredTopology) {
  const std::size_t n = GetParam();
  const std::size_t groups = std::max<std::size_t>(1, n / 4);
  const std::size_t per = std::max<std::size_t>(1, n / groups);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_both_modes_identical(
        clustered_field(groups, per, 6.0, 500.0, 500.0, seed),
        "clustered n=" + std::to_string(n) +
            " seed=" + std::to_string(seed));
  }
}

TEST_P(SpatialIndexDifferential, CollinearTopology) {
  const std::size_t n = GetParam();
  // Nodes on a line with spacing that repeatedly lands on cell-size
  // multiples of d/2 = 7, exercising boundary assignment.
  std::vector<SuNode> nodes;
  Rng rng(42, n);
  for (std::size_t i = 0; i < n; ++i) {
    SuNode node;
    node.id = static_cast<NodeId>(i);
    node.position = Vec2{3.5 * static_cast<double>(i), 100.0};
    node.battery_j = rng.uniform(0.5, 1.0);
    nodes.push_back(node);
  }
  expect_both_modes_identical(nodes, "collinear n=" + std::to_string(n));
}

TEST_P(SpatialIndexDifferential, DuplicatePositionTopology) {
  const std::size_t n = GetParam();
  // Many nodes stacked on few distinct sites — equal distances
  // everywhere, so the ascending-index absorb order and the
  // (battery, id) head tie-break carry all the information.
  std::vector<SuNode> nodes;
  Rng rng(7, n);
  const std::size_t sites = std::max<std::size_t>(1, n / 5);
  for (std::size_t i = 0; i < n; ++i) {
    SuNode node;
    node.id = static_cast<NodeId>(i);
    const std::size_t s = i % sites;
    node.position = Vec2{20.0 * static_cast<double>(s % 16),
                         20.0 * static_cast<double>(s / 16)};
    // Duplicate batteries too, so head election must tie-break on id.
    node.battery_j = (i % 3 == 0) ? 0.75 : rng.uniform(0.5, 1.0);
    nodes.push_back(node);
  }
  expect_both_modes_identical(nodes,
                              "duplicate n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpatialIndexDifferential,
                         ::testing::Values(1, 2, 3, 5, 9, 17, 33, 64, 129,
                                           256, 512),
                         [](const ::testing::TestParamInfo<std::size_t>&
                                info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(SpatialIndexDifferential, CellBoundaryTies) {
  // Nodes placed exactly d/2 apart and exactly on what will be cell
  // boundaries: membership must come out of the exact predicate, never
  // the cell walk.
  const double d = 14.0;
  std::vector<SuNode> nodes;
  NodeId id = 0;
  for (int gx = 0; gx < 6; ++gx) {
    for (int gy = 0; gy < 6; ++gy) {
      SuNode node;
      node.id = id++;
      node.position =
          Vec2{(d / 2.0) * static_cast<double>(gx),
               (d / 2.0) * static_cast<double>(gy)};
      node.battery_j = 0.75;  // all equal: tie-break on id everywhere
      nodes.push_back(node);
    }
  }
  expect_both_modes_identical(nodes, "boundary-ties");
}

TEST(SpatialIndexDifferential, ClusteringOverloadMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto nodes = random_field(100 + seed * 13, 300.0, 300.0, seed);
    const auto ref = d_clustering(nodes, 14.0);
    const auto grid = d_clustering(nodes, 14.0, NetIndexMode::kGrid);
    ASSERT_EQ(ref.size(), grid.size()) << "seed " << seed;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].id, grid[i].id);
      EXPECT_EQ(ref[i].head, grid[i].head);
      EXPECT_EQ(ref[i].members, grid[i].members);
    }
  }
}

}  // namespace
}  // namespace comimo
