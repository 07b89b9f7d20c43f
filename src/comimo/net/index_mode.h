// Node-layer index selection: grid-accelerated vs O(n²) reference.
//
// Every spatial computation of the network layer (d-clustering, link
// derivation, carrier sensing, interference checks) exists twice: the
// original O(n²) pairwise-scan *reference* implementation and the
// grid-indexed path that makes per-node work O(1).  The two are
// bit-identical by construction — the grid only prunes candidates that
// provably fail the exact predicate, and surviving candidates are
// evaluated with the same expressions in the same order — and the
// differential suite (tests/test_spatial_index.cpp) holds them to it.
// The reference stays compiled in behind this switch so any regression
// can always be cross-checked.
#pragma once

namespace comimo {

/// Chosen per config (CoMimoNetConfig::index_mode,
/// SpatialCsmaConfig::index_mode), never process-wide: both default to
/// kGrid, and the differential tests set kReference on the configs they
/// cross-check, so no job can switch the index of another.
enum class NetIndexMode {
  kGrid,       ///< spatial grid index; O(1) expected work per node
  kReference,  ///< original O(n²) pairwise scans (the oracle)
};

}  // namespace comimo
