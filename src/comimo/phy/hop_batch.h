// Batch-of-blocks arena for an entire cooperative hop.
//
// LinkBatchWorkspace batches the innermost STBC link W Monte-Carlo
// realizations wide; HopBatchWorkspace generalizes that to the whole
// Algorithm-2 hop (testbed/coop_hop_sim.h): the intra-cluster broadcast
// beliefs, the per-antenna long-haul encode (each virtual antenna
// transmits its *own* possibly mis-decoded bit stream), the collection
// noise added by analog forwarding, and the lane-major decoded output.
// The embedded `link` member carries the long-haul planes, so the plain
// link kernel (WaveformBerKernel) runs on a HopBatchWorkspace unchanged
// — which is how the underlay/overlay/resilience measurement call sites
// all share one per-thread arena type.
//
// Layout contracts (same as link_batch.h):
//   * SoA planes: element e of lane w at plane[e·W + w], 64-byte base;
//   * lane-major byte staging: lane w's block at [w·bits_per_block, …);
//   * belief bits add an antenna axis: antenna i, lane w at
//     [(i·W + w)·bits_per_block, …) — lane-contiguous so the scalar
//     modulator can take a slice directly.
//
// configure_*() shape with resize(), which reuses capacity, so the
// steady-state hop loop is allocation-free once the workspace has seen
// its largest (code, width) — including alternation between the full
// and ladder-degraded STBC shapes.  A long-haul pass at width 1 (a
// ragged tail, an ARQ retry) runs on the head of planes shaped for the
// workspace's width.
#pragma once

#include <cstddef>
#include <vector>

#include "comimo/numeric/aligned.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {

/// All buffers for W blocks of one simulated cooperative hop.
struct HopBatchWorkspace {
  /// Long-haul leg planes (encode/fade/decode), shaped per active
  /// sub-code by configure_long_haul.
  LinkBatchWorkspace link;

  // Per-antenna belief symbol planes for the long-haul encode:
  // mt_use · K_use elements, [(i·K + k)·W + w].
  AlignedVec<double> ant_sym_re, ant_sym_im;

  /// Broadcast beliefs, antenna-major then lane-major:
  /// antenna i of lane w at [(i·W + w)·bits_per_block, …).
  BitVec belief_bits;
  /// Hop output, lane-major: lane w at [w·bits_per_block, …).
  BitVec decoded_all;

  // Scalar lane staging for the broadcast leg.
  std::vector<cplx> lane_syms;  ///< head-broadcast symbols
  std::vector<cplx> lane_rx;    ///< noisy local copy per co-transmitter
  BitVec lane_decoded;          ///< scalar demod staging

  std::size_t width = 0;           ///< lanes currently configured
  std::size_t mt = 0;              ///< full-code virtual antennas
  std::size_t bits_per_block = 0;  ///< full-code payload bits per block

  /// Shapes the hop-level staging for `code` (the full design) over an
  /// mr-antenna collection cluster, `width` lanes wide.  Idempotent and
  /// cheap when nothing changed.
  void configure_hop(const StbcCode& code, std::size_t mr, std::size_t width,
                     std::size_t bits_per_block);

  /// Shapes the long-haul planes for one (possibly ladder-degraded)
  /// sub-code: the embedded link workspace plus the per-antenna symbol
  /// planes.  Called per long-haul pass; `sub_bits` is the sub-block
  /// payload size.
  void configure_long_haul(const StbcCode& code_use, std::size_t mr,
                           std::size_t width, std::size_t sub_bits);

  /// Antenna i / lane w belief slice (bits_per_block bytes).
  [[nodiscard]] std::uint8_t* belief(std::size_t antenna,
                                     std::size_t lane) noexcept {
    return belief_bits.data() + (antenna * width + lane) * bits_per_block;
  }
  /// Lane w decoded slice (bits_per_block bytes).
  [[nodiscard]] std::uint8_t* decoded_lane(std::size_t lane) noexcept {
    return decoded_all.data() + lane * bits_per_block;
  }
};

}  // namespace comimo
