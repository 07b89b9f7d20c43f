// The CoMIMONet (§2.1): node graph G = (V, E), its d-clustering, and the
// cluster graph G_MIMO whose edges are cooperative MIMO links.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "comimo/net/clustering.h"
#include "comimo/net/index_mode.h"
#include "comimo/net/node.h"
#include "comimo/net/spatial_index.h"

namespace comimo {

using ClusterId = std::uint32_t;

struct CoMimoNetConfig {
  double communication_range_m = 60.0;  ///< r
  double cluster_diameter_m = 10.0;     ///< d (d ≤ r)
  double link_range_m = 250.0;          ///< max cooperative-link length D
  /// Grid-indexed vs O(n²) reference construction; both produce
  /// bit-identical clusters, heads, and links (the differential suite
  /// enforces it).
  NetIndexMode index_mode = NetIndexMode::kGrid;
};

/// One cooperative link of G_MIMO.
struct CoopLink {
  ClusterId a = 0;
  ClusterId b = 0;
  double length_m = 0.0;  ///< the link's D (largest member gap)

  /// SISO/SIMO/MISO/MIMO classification by endpoint sizes (§2.1).
  enum class Kind { kSiso, kSimo, kMiso, kMimo };
};

class CoMimoNet {
 public:
  /// Builds the network: d-clusters the nodes, elects heads, and adds a
  /// cooperative link between every cluster pair whose largest member
  /// gap is at most link_range_m.
  CoMimoNet(std::vector<SuNode> nodes, const CoMimoNetConfig& config);

  [[nodiscard]] const std::vector<SuNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const std::vector<Cluster>& clusters() const noexcept {
    return clusters_;
  }
  [[nodiscard]] const std::vector<CoopLink>& links() const noexcept {
    return links_;
  }
  [[nodiscard]] const CoMimoNetConfig& config() const noexcept {
    return config_;
  }

  /// Clusters adjacent to `c` in G_MIMO.
  [[nodiscard]] std::vector<ClusterId> neighbors(ClusterId c) const;

  /// Link between two clusters, or nullptr when absent.
  [[nodiscard]] const CoopLink* link_between(ClusterId a, ClusterId b) const;

  /// Kind of a directed transmission a→b by endpoint sizes.
  [[nodiscard]] CoopLink::Kind link_kind(ClusterId a, ClusterId b) const;

  /// Cluster containing node `id`.
  [[nodiscard]] ClusterId cluster_of(NodeId id) const;

  /// Node lookup by id.
  [[nodiscard]] const SuNode& node(NodeId id) const;
  /// Mutable access for battery accounting.
  [[nodiscard]] SuNode& mutable_node(NodeId id);

  /// Re-elects cluster heads from the current battery levels — the
  /// §2.1 reconfiguration hook ("the clusters and the routing backbone
  /// are reconfigurable") run after traffic depletes batteries.
  /// Returns the number of clusters whose head changed.
  std::size_t reelect_heads();

  /// Largest pairwise member distance of cluster `c` — identical value
  /// to cluster_diameter(nodes(), clusters()[c]) without its O(n)
  /// id→index scans.
  [[nodiscard]] double cluster_diameter_of(ClusterId c) const;

  /// Removes the given nodes (deaths, PU preemption) and brings the
  /// clustering, heads, links, and adjacency back to exactly the state
  /// a from-scratch `CoMimoNet(survivors, config())` would produce —
  /// the incremental re-clustering contract the fuzz suite pins.
  ///
  /// In kGrid mode this is incremental: clusters formed before the
  /// first dead *seed* are kept (trimmed of their own dead members —
  /// a dead non-seed member never changes any other absorb decision),
  /// and only the suffix re-runs greedy absorption.  Members of
  /// dissolved clusters become free agents.  When an old cluster's seed
  /// is the next greedy seed, the greedy can absorb only its alive
  /// members, free agents within d/2 of the seed, and untouched
  /// members of later clusters — none, since the original greedy would
  /// have given them to this cluster.  So the cluster is copied
  /// verbatim unless a free agent lies within d/2 of its seed, and a
  /// wave dissolves clusters only where a freed SU can reach.  Links
  /// between unchanged clusters keep their cached gap values.  In
  /// kReference mode it simply rebuilds from scratch.  Ids not present
  /// are ignored; at least one node must survive.
  void remove_nodes(const std::vector<NodeId>& ids);

  /// Approximate heap footprint of the network representation in bytes
  /// (nodes, clusters, links, adjacency, indexes) — the bench's
  /// bytes/node accounting.
  [[nodiscard]] std::size_t approx_bytes() const;

  /// True when every node pair within a cluster is inside communication
  /// range and every link respects link_range_m — the §2.1 invariants.
  [[nodiscard]] bool validate() const;

 private:
  struct AdjEntry {
    ClusterId neighbor = 0;
    std::uint32_t link = 0;  ///< index into links_
  };

  void rebuild_node_index();
  void rebuild_node_cluster();
  void build_links_reference();
  void build_links_grid();
  /// Computes gaps for candidate (a, b) cluster pairs — in parallel
  /// when the batch is large, always deterministically — and appends
  /// the passing ones to `out` in pair order.
  void links_from_pairs(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
      std::vector<CoopLink>& out) const;
  void build_adjacency();
  /// cluster_gap with O(1) id→index lookups; same reduction order, so
  /// the same double comes out.
  [[nodiscard]] double gap_between(const Cluster& a, const Cluster& b) const;

  std::vector<SuNode> nodes_;
  CoMimoNetConfig config_;
  std::vector<Cluster> clusters_;
  std::vector<CoopLink> links_;
  std::vector<ClusterId> node_cluster_;   // node index -> cluster id
  std::vector<std::size_t> node_index_;   // node id -> index in nodes_
  // G_MIMO adjacency in CSR form, built by scanning links_ in order so
  // neighbors() reproduces the reference scan's output order exactly.
  std::vector<std::uint32_t> adj_start_;  // cluster id -> first AdjEntry
  std::vector<AdjEntry> adj_;
  SpatialGrid node_grid_;  // id-keyed; live only in kGrid mode
};

/// Generates `n` nodes uniformly in a w×h field with batteries uniform
/// in [battery_lo, battery_hi] (deterministic in the seed).
[[nodiscard]] std::vector<SuNode> random_field(std::size_t n, double width_m,
                                               double height_m,
                                               std::uint64_t seed,
                                               double battery_lo = 0.5,
                                               double battery_hi = 1.0);

/// Generates `groups` anchor points uniformly in the field and scatters
/// `nodes_per_group` nodes within `spread_m` of each anchor — the
/// grouped deployments the cooperative schemes assume (SUs close enough
/// to form d-clusters, clusters far apart).
[[nodiscard]] std::vector<SuNode> clustered_field(
    std::size_t groups, std::size_t nodes_per_group, double spread_m,
    double width_m, double height_m, std::uint64_t seed,
    double battery_lo = 0.5, double battery_hi = 1.0);

}  // namespace comimo
