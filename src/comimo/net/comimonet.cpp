#include "comimo/net/comimonet.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"

namespace comimo {

CoMimoNet::CoMimoNet(std::vector<SuNode> nodes, const CoMimoNetConfig& config)
    : nodes_(std::move(nodes)), config_(config) {
  COMIMO_CHECK(!nodes_.empty(), "network needs at least one node");
  COMIMO_CHECK(config.cluster_diameter_m <= config.communication_range_m,
               "d must be <= communication range r (§2.1)");
  rebuild_node_index();
  clusters_ =
      d_clustering(nodes_, config.cluster_diameter_m, config.index_mode);
  rebuild_node_cluster();
  if (config_.index_mode == NetIndexMode::kGrid) {
    std::vector<std::uint32_t> keys(nodes_.size());
    std::vector<Vec2> positions(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      keys[i] = nodes_[i].id;
      positions[i] = nodes_[i].position;
    }
    node_grid_ =
        SpatialGrid(keys, positions, config.cluster_diameter_m / 2.0);
    build_links_grid();
  } else {
    build_links_reference();
  }
  build_adjacency();
}

void CoMimoNet::rebuild_node_index() {
  NodeId max_id = 0;
  for (const auto& n : nodes_) max_id = std::max(max_id, n.id);
  node_index_.assign(static_cast<std::size_t>(max_id) + 1, ~std::size_t{0});
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    COMIMO_CHECK(node_index_[nodes_[i].id] == ~std::size_t{0},
                 "duplicate node id");
    node_index_[nodes_[i].id] = i;
  }
}

void CoMimoNet::rebuild_node_cluster() {
  node_cluster_.assign(nodes_.size(), 0);
  for (const auto& c : clusters_) {
    for (const NodeId m : c.members) {
      node_cluster_[node_index_[m]] = c.id;
    }
  }
}

void CoMimoNet::build_links_reference() {
  links_.clear();
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    for (std::size_t j = i + 1; j < clusters_.size(); ++j) {
      const double gap = cluster_gap(nodes_, clusters_[i], clusters_[j]);
      if (gap <= config_.link_range_m) {
        links_.push_back(CoopLink{clusters_[i].id, clusters_[j].id, gap});
      }
    }
  }
}

void CoMimoNet::build_links_grid() {
  links_.clear();
  const std::size_t k = clusters_.size();
  std::vector<Vec2> seed_pos(k);
  for (std::size_t i = 0; i < k; ++i) {
    seed_pos[i] =
        nodes_[node_index_[clusters_[i].members.front()]].position;
  }
  const double range = config_.link_range_m;
  const SpatialGrid seed_grid(seed_pos, range);
  // Candidate pairs in ascending (i, j) lex order — the reference's
  // double-loop traversal.  Seeds are members of their clusters, so a
  // qualifying pair (gap <= D) always has seed distance <= gap <= D:
  // querying seeds within D misses nothing.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cand;
  std::vector<std::uint32_t> hits;
  for (std::uint32_t i = 0; i < k; ++i) {
    hits.clear();
    seed_grid.query(seed_pos[i], range, hits);
    std::sort(hits.begin(), hits.end());
    for (const std::uint32_t j : hits) {
      if (j > i) cand.emplace_back(i, j);
    }
  }
  links_from_pairs(cand, links_);
}

void CoMimoNet::links_from_pairs(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs,
    std::vector<CoopLink>& out) const {
  // Gaps are computed out-of-order (possibly in parallel) into an
  // index-addressed array, then filtered serially in pair order, so the
  // output is deterministic at any thread count.
  std::vector<double> gaps(pairs.size());
  const auto compute = [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      gaps[p] =
          gap_between(clusters_[pairs[p].first], clusters_[pairs[p].second]);
    }
  };
  constexpr std::size_t kParallelThreshold = 4096;
  if (pairs.size() >= kParallelThreshold) {
    parallel_for_chunks(ThreadPool::shared(), pairs.size(), 1024, compute);
  } else {
    compute(0, pairs.size());
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (gaps[p] <= config_.link_range_m) {
      out.push_back(CoopLink{pairs[p].first, pairs[p].second, gaps[p]});
    }
  }
}

double CoMimoNet::gap_between(const Cluster& a, const Cluster& b) const {
  double gap = 0.0;
  for (const NodeId ma : a.members) {
    const Vec2& pa = nodes_[node_index_[ma]].position;
    for (const NodeId mb : b.members) {
      gap = std::max(gap, distance(pa, nodes_[node_index_[mb]].position));
    }
  }
  return gap;
}

void CoMimoNet::build_adjacency() {
  const std::size_t k = clusters_.size();
  adj_start_.assign(k + 1, 0);
  for (const auto& l : links_) {
    ++adj_start_[l.a + 1];
    ++adj_start_[l.b + 1];
  }
  for (std::size_t i = 0; i < k; ++i) adj_start_[i + 1] += adj_start_[i];
  adj_.assign(links_.size() * 2, AdjEntry{});
  std::vector<std::uint32_t> cursor(adj_start_.begin(), adj_start_.end() - 1);
  for (std::size_t li = 0; li < links_.size(); ++li) {
    const auto& l = links_[li];
    adj_[cursor[l.a]++] = AdjEntry{l.b, static_cast<std::uint32_t>(li)};
    adj_[cursor[l.b]++] = AdjEntry{l.a, static_cast<std::uint32_t>(li)};
  }
}

std::vector<ClusterId> CoMimoNet::neighbors(ClusterId c) const {
  // CSR rows are filled by scanning links_ in order, which reproduces
  // the original links_ scan's output order exactly.
  std::vector<ClusterId> out;
  if (static_cast<std::size_t>(c) + 1 >= adj_start_.size()) return out;
  out.reserve(adj_start_[c + 1] - adj_start_[c]);
  for (std::uint32_t e = adj_start_[c]; e < adj_start_[c + 1]; ++e) {
    out.push_back(adj_[e].neighbor);
  }
  return out;
}

const CoopLink* CoMimoNet::link_between(ClusterId a, ClusterId b) const {
  if (static_cast<std::size_t>(a) + 1 >= adj_start_.size()) return nullptr;
  for (std::uint32_t e = adj_start_[a]; e < adj_start_[a + 1]; ++e) {
    if (adj_[e].neighbor == b) return &links_[adj_[e].link];
  }
  return nullptr;
}

CoopLink::Kind CoMimoNet::link_kind(ClusterId a, ClusterId b) const {
  COMIMO_CHECK(a < clusters_.size() && b < clusters_.size(),
               "cluster id out of range");
  const std::size_t mt = clusters_[a].size();
  const std::size_t mr = clusters_[b].size();
  if (mt == 1 && mr == 1) return CoopLink::Kind::kSiso;
  if (mt == 1) return CoopLink::Kind::kSimo;
  if (mr == 1) return CoopLink::Kind::kMiso;
  return CoopLink::Kind::kMimo;
}

ClusterId CoMimoNet::cluster_of(NodeId id) const {
  COMIMO_CHECK(id < node_index_.size() &&
                   node_index_[id] != ~std::size_t{0},
               "unknown node id");
  return node_cluster_[node_index_[id]];
}

const SuNode& CoMimoNet::node(NodeId id) const {
  COMIMO_CHECK(id < node_index_.size() &&
                   node_index_[id] != ~std::size_t{0},
               "unknown node id");
  return nodes_[node_index_[id]];
}

SuNode& CoMimoNet::mutable_node(NodeId id) {
  COMIMO_CHECK(id < node_index_.size() &&
                   node_index_[id] != ~std::size_t{0},
               "unknown node id");
  return nodes_[node_index_[id]];
}

std::size_t CoMimoNet::reelect_heads() {
  std::vector<NodeId> before;
  before.reserve(clusters_.size());
  for (const auto& c : clusters_) before.push_back(c.head);
  elect_heads(nodes_, clusters_);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (clusters_[i].head != before[i]) ++changed;
  }
  return changed;
}

double CoMimoNet::cluster_diameter_of(ClusterId c) const {
  COMIMO_CHECK(c < clusters_.size(), "cluster id out of range");
  const auto& members = clusters_[c].members;
  double diam = 0.0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Vec2& pi = nodes_[node_index_[members[i]]].position;
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      diam =
          std::max(diam, distance(pi, nodes_[node_index_[members[j]]].position));
    }
  }
  return diam;
}

std::size_t CoMimoNet::approx_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(SuNode) +
                      node_index_.capacity() * sizeof(std::size_t) +
                      node_cluster_.capacity() * sizeof(ClusterId) +
                      links_.capacity() * sizeof(CoopLink) +
                      adj_start_.capacity() * sizeof(std::uint32_t) +
                      adj_.capacity() * sizeof(AdjEntry) + node_grid_.bytes();
  for (const auto& c : clusters_) {
    bytes += sizeof(Cluster) + c.members.capacity() * sizeof(NodeId);
  }
  return bytes;
}

void CoMimoNet::remove_nodes(const std::vector<NodeId>& ids) {
  // Dead node *indices* (present ids only, deduplicated).
  std::vector<std::size_t> dead;
  dead.reserve(ids.size());
  for (const NodeId id : ids) {
    if (id < node_index_.size() && node_index_[id] != ~std::size_t{0}) {
      dead.push_back(node_index_[id]);
    }
  }
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  if (dead.empty()) return;
  COMIMO_CHECK(dead.size() < nodes_.size(), "cannot remove every node");

  if (config_.index_mode == NetIndexMode::kReference) {
    std::vector<bool> is_dead(nodes_.size(), false);
    for (const std::size_t idx : dead) is_dead[idx] = true;
    std::vector<SuNode> survivors;
    survivors.reserve(nodes_.size() - dead.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!is_dead[i]) survivors.push_back(nodes_[i]);
    }
    *this = CoMimoNet(std::move(survivors), config_);
    return;
  }

  const std::size_t n = nodes_.size();
  const std::size_t old_k = clusters_.size();
  const double d = config_.cluster_diameter_m;

  // Per-node state during the suffix recompute.  Cluster ids equal
  // formation order (assigned sequentially), which the incremental
  // argument leans on throughout.
  enum : std::uint8_t { kDone = 0, kUntouched = 1, kPending = 2, kDead = 3 };
  std::vector<std::uint8_t> state(n, kDone);

  std::vector<bool> cluster_has_dead(old_k, false);
  std::size_t first_dirty = old_k;  // first cluster whose *seed* died
  for (const std::size_t idx : dead) {
    const ClusterId c = node_cluster_[idx];
    cluster_has_dead[c] = true;
    if (node_index_[clusters_[c].members.front()] == idx) {
      first_dirty = std::min(first_dirty, static_cast<std::size_t>(c));
    }
  }
  for (std::size_t c = first_dirty; c < old_k; ++c) {
    for (const NodeId m : clusters_[c].members) {
      state[node_index_[m]] = kUntouched;
    }
  }
  for (const std::size_t idx : dead) {
    state[idx] = kDead;
    node_grid_.remove(nodes_[idx].id, nodes_[idx].position);
  }

  // A dead non-seed member never changes another node's absorb
  // decision, so clusters formed before the first dead seed survive
  // verbatim minus their own dead members.  Trim them in place.
  for (std::size_t c = 0; c < first_dirty; ++c) {
    if (!cluster_has_dead[c]) continue;
    auto& members = clusters_[c].members;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&](NodeId m) {
                                   return state[node_index_[m]] == kDead;
                                 }),
                  members.end());
  }

  // Greedy re-clustering of the suffix.  A min-heap of freed node
  // indices tracks the "free agents"; an old cluster is dissolved into
  // it only when the greedy cannot re-form it verbatim (its seed died,
  // a free agent's cluster steals a member, or a free agent lies within
  // reach of its seed), and copies otherwise.
  std::vector<Cluster> suffix;
  std::vector<std::size_t> suffix_old_id;  // old id, or old_k if newly formed
  std::vector<bool> dissolved(old_k, false);
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      heap;
  const auto dissolve = [&](std::size_t c) {
    dissolved[c] = true;
    for (const NodeId m : clusters_[c].members) {
      const std::size_t idx = node_index_[m];
      if (state[idx] == kUntouched) {
        state[idx] = kPending;
        heap.push(idx);
      }
    }
  };

  std::size_t o = first_dirty;
  std::vector<std::uint32_t> hits;
  std::vector<std::size_t> cand;
  while (true) {
    // Advance past processed clusters; a dead-seed cluster can never
    // copy verbatim, so dissolve it on sight.
    while (o < old_k) {
      if (dissolved[o]) {
        ++o;
      } else if (state[node_index_[clusters_[o].members.front()]] == kDead) {
        dissolve(o);
        ++o;
      } else {
        break;
      }
    }
    while (!heap.empty() && state[heap.top()] != kPending) heap.pop();
    if (heap.empty() && o == old_k) break;

    // Next greedy seed: the smallest unassigned index, which is the
    // heap minimum or the first untouched cluster's seed (members of
    // later untouched clusters all have larger indices).
    std::size_t s = heap.empty() ? n : heap.top();
    if (o < old_k) {
      const std::size_t old_seed =
          node_index_[clusters_[o].members.front()];
      if (old_seed < s) {
        // Cluster o's seed is next.  The greedy absorbs o's alive
        // members, every pending agent within d/2 of the seed, and no
        // untouched member of a later cluster: the original greedy
        // formed o first and would have given it to o.  So o re-forms
        // verbatim unless a pending agent lies within d/2 — tested with
        // the absorb step's own exact `distance <= d/2` predicate.
        const bool absorbs_agent =
            !heap.empty() &&
            node_grid_.any_within(nodes_[old_seed].position, d / 2.0,
                                  [&](std::uint32_t id) {
                                    return state[node_index_[id]] ==
                                           kPending;
                                  });
        if (!absorbs_agent) {
          Cluster nc;
          nc.members = std::move(clusters_[o].members);
          std::size_t alive = 0;
          for (const NodeId m : nc.members) {
            const std::size_t idx = node_index_[m];
            if (state[idx] == kDead) continue;
            state[idx] = kDone;
            nc.members[alive++] = m;
          }
          nc.members.resize(alive);
          suffix_old_id.push_back(o);
          suffix.push_back(std::move(nc));
          ++o;
          continue;
        }
        dissolve(o);
        ++o;
        s = old_seed;
      }
    }
    state[s] = kDone;
    Cluster nc;
    nc.members.push_back(nodes_[s].id);
    hits.clear();
    node_grid_.query(nodes_[s].position, d / 2.0, hits);
    cand.clear();
    for (const std::uint32_t id : hits) cand.push_back(node_index_[id]);
    std::sort(cand.begin(), cand.end());
    for (const std::size_t j : cand) {
      if (state[j] == kUntouched) {
        // Stealing a member breaks its old cluster's verbatim-copy
        // guarantee: dissolve the remainder into the free pool.
        dissolve(node_cluster_[j]);
      }
      if (state[j] != kPending) continue;
      state[j] = kDone;
      nc.members.push_back(nodes_[j].id);
    }
    suffix_old_id.push_back(old_k);
    suffix.push_back(std::move(nc));
  }

  // Splice the new suffix in and renumber sequentially (prefix ids are
  // already 0..first_dirty-1).  The old-id → new-id remap is filled
  // only for clusters whose member list is byte-for-byte unchanged —
  // their cached link gaps stay valid.
  constexpr std::uint32_t kNoRemap = ~std::uint32_t{0};
  std::vector<std::uint32_t> remap(old_k, kNoRemap);
  for (std::size_t c = 0; c < first_dirty; ++c) {
    if (!cluster_has_dead[c]) remap[c] = static_cast<std::uint32_t>(c);
  }
  std::vector<ClusterId> changed;  // new ids needing link recompute
  for (std::size_t c = 0; c < first_dirty; ++c) {
    if (cluster_has_dead[c]) changed.push_back(static_cast<ClusterId>(c));
  }
  clusters_.erase(clusters_.begin() + static_cast<std::ptrdiff_t>(first_dirty),
                  clusters_.end());
  for (std::size_t s = 0; s < suffix.size(); ++s) {
    const auto new_id = static_cast<ClusterId>(first_dirty + s);
    suffix[s].id = new_id;
    const std::size_t old_id = suffix_old_id[s];
    if (old_id < old_k && !cluster_has_dead[old_id]) {
      remap[old_id] = new_id;
    } else {
      changed.push_back(new_id);
    }
    clusters_.push_back(std::move(suffix[s]));
  }

  // Drop the dead from nodes_ (stable order) and refresh the id maps.
  std::vector<bool> is_dead(n, false);
  for (const std::size_t idx : dead) {
    is_dead[idx] = true;
    node_index_[nodes_[idx].id] = ~std::size_t{0};
  }
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_dead[i]) continue;
    if (w != i) nodes_[w] = nodes_[i];
    ++w;
  }
  nodes_.resize(w);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    node_index_[nodes_[i].id] = i;
  }
  rebuild_node_cluster();

  // Head election over every cluster from current batteries — exactly
  // what the from-scratch constructor does (same reduction, same
  // tie-break), at O(n) cost.
  for (auto& c : clusters_) {
    NodeId best = c.members.front();
    double best_battery = nodes_[node_index_[best]].battery_j;
    for (const NodeId m : c.members) {
      const double battery = nodes_[node_index_[m]].battery_j;
      if (battery > best_battery ||
          (battery == best_battery && m < best)) {
        best = m;
        best_battery = battery;
      }
    }
    c.head = best;
  }

  // Links: keep old links between unchanged clusters (the remap is
  // monotone, so their lex order survives; gaps are cached values the
  // full rebuild would recompute identically), and recompute pairs
  // involving a changed cluster via a seed-grid query — a qualifying
  // pair's seed distance is bounded by its gap, so radius D suffices.
  std::vector<CoopLink> kept;
  kept.reserve(links_.size());
  for (const auto& l : links_) {
    const std::uint32_t na = remap[l.a];
    const std::uint32_t nb = remap[l.b];
    if (na != kNoRemap && nb != kNoRemap) {
      kept.push_back(CoopLink{na, nb, l.length_m});
    }
  }
  const std::size_t new_k = clusters_.size();
  std::vector<Vec2> seed_pos(new_k);
  for (std::size_t i = 0; i < new_k; ++i) {
    seed_pos[i] = nodes_[node_index_[clusters_[i].members.front()]].position;
  }
  const SpatialGrid seed_grid(seed_pos, config_.link_range_m);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const ClusterId c : changed) {
    hits.clear();
    seed_grid.query(seed_pos[c], config_.link_range_m, hits);
    for (const std::uint32_t j : hits) {
      if (j == c) continue;
      pairs.emplace_back(std::min(c, j), std::max(c, j));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<CoopLink> fresh;
  links_from_pairs(pairs, fresh);
  links_.clear();
  links_.reserve(kept.size() + fresh.size());
  std::merge(kept.begin(), kept.end(), fresh.begin(), fresh.end(),
             std::back_inserter(links_), [](const CoopLink& x,
                                            const CoopLink& y) {
               return x.a != y.a ? x.a < y.a : x.b < y.b;
             });
  build_adjacency();

  if (obs::enabled()) {
    auto& reg = obs::MetricRegistry::global();
    reg.counter("net.incremental_recluster").add(1);
    reg.counter("net.nodes_removed").add(dead.size());
    reg.counter("net.clusters_dissolved")
        .add(static_cast<std::uint64_t>(
            std::count(dissolved.begin(), dissolved.end(), true)));
    reg.counter("net.links_recomputed").add(fresh.size());
    reg.counter("net.links_kept").add(kept.size());
  }
}

bool CoMimoNet::validate() const {
  if (!validate_clustering(nodes_, clusters_, config_.cluster_diameter_m)) {
    return false;
  }
  for (const auto& l : links_) {
    if (l.length_m > config_.link_range_m) return false;
  }
  for (const auto& c : clusters_) {
    if (c.head == kInvalidNode) return false;
    if (std::find(c.members.begin(), c.members.end(), c.head) ==
        c.members.end()) {
      return false;
    }
  }
  return true;
}

std::vector<SuNode> clustered_field(std::size_t groups,
                                    std::size_t nodes_per_group,
                                    double spread_m, double width_m,
                                    double height_m, std::uint64_t seed,
                                    double battery_lo, double battery_hi) {
  COMIMO_CHECK(groups >= 1 && nodes_per_group >= 1, "empty field request");
  COMIMO_CHECK(spread_m >= 0.0 && width_m > 0.0 && height_m > 0.0,
               "invalid field geometry");
  Rng rng(seed);
  std::vector<SuNode> nodes;
  nodes.reserve(groups * nodes_per_group);
  NodeId id = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const Vec2 anchor{rng.uniform(spread_m, width_m - spread_m),
                      rng.uniform(spread_m, height_m - spread_m)};
    for (std::size_t k = 0; k < nodes_per_group; ++k) {
      SuNode node;
      node.id = id++;
      node.position = rng.point_in_disk(anchor, spread_m);
      node.battery_j = rng.uniform(battery_lo, battery_hi);
      nodes.push_back(node);
    }
  }
  return nodes;
}

std::vector<SuNode> random_field(std::size_t n, double width_m,
                                 double height_m, std::uint64_t seed,
                                 double battery_lo, double battery_hi) {
  COMIMO_CHECK(n >= 1, "need at least one node");
  COMIMO_CHECK(width_m > 0.0 && height_m > 0.0, "field must be non-empty");
  Rng rng(seed);
  std::vector<SuNode> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    SuNode node;
    node.id = static_cast<NodeId>(i);
    node.position = Vec2{rng.uniform(0.0, width_m), rng.uniform(0.0, height_m)};
    node.battery_j = rng.uniform(battery_lo, battery_hi);
    nodes.push_back(node);
  }
  return nodes;
}

}  // namespace comimo
