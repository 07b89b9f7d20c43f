// Bit-exact structural equality of two CoMimoNets, shared by the
// suites that pin the incremental remove_nodes() path to a from-scratch
// rebuild.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "comimo/net/comimonet.h"

namespace comimo {

// Node set (ids + batteries), cluster partition, heads, link list
// (including the cached gap doubles) and adjacency order must all match.
inline void expect_same_net(const CoMimoNet& a, const CoMimoNet& b,
                            const std::string& label) {
  ASSERT_EQ(a.nodes().size(), b.nodes().size()) << label;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].id, b.nodes()[i].id) << label << " node " << i;
    EXPECT_EQ(a.nodes()[i].battery_j, b.nodes()[i].battery_j)
        << label << " node " << i;
  }
  ASSERT_EQ(a.clusters().size(), b.clusters().size()) << label;
  for (std::size_t c = 0; c < a.clusters().size(); ++c) {
    EXPECT_EQ(a.clusters()[c].id, b.clusters()[c].id) << label;
    EXPECT_EQ(a.clusters()[c].head, b.clusters()[c].head)
        << label << " cluster " << c;
    ASSERT_EQ(a.clusters()[c].members, b.clusters()[c].members)
        << label << " cluster " << c;
  }
  ASSERT_EQ(a.links().size(), b.links().size()) << label;
  for (std::size_t l = 0; l < a.links().size(); ++l) {
    EXPECT_EQ(a.links()[l].a, b.links()[l].a) << label << " link " << l;
    EXPECT_EQ(a.links()[l].b, b.links()[l].b) << label << " link " << l;
    EXPECT_EQ(a.links()[l].length_m, b.links()[l].length_m)
        << label << " link " << l;
  }
  for (ClusterId c = 0; c < static_cast<ClusterId>(a.clusters().size());
       ++c) {
    EXPECT_EQ(a.neighbors(c), b.neighbors(c)) << label << " c=" << c;
  }
}

}  // namespace comimo
