// Spatial CSMA/CA: carrier sensing with positions.
//
// The single-collision-domain simulator (csma_ca.h) is adequate for one
// backbone neighborhood; at field scale the MAC behaves differently —
// distant clusters reuse the channel concurrently, and *hidden
// terminals* (two transmitters that cannot hear each other but share a
// receiver) collide despite carrier sensing.  This simulator adds both:
// stations sense only transmitters within `carrier_sense_range_m`, and
// a frame is lost if any other station transmits within
// `interference_range_m` of its destination during its airtime.
#pragma once

#include <cstdint>
#include <vector>

#include "comimo/common/geometry.h"
#include "comimo/net/index_mode.h"
#include "comimo/net/node.h"

namespace comimo {

struct SpatialCsmaConfig {
  double slot_time_s = 20e-6;
  unsigned difs_slots = 2;
  unsigned cw_min = 16;
  unsigned cw_max = 1024;
  unsigned max_retries = 7;
  double bitrate_bps = 250e3;
  double carrier_sense_range_m = 100.0;
  double interference_range_m = 80.0;
  std::uint64_t seed = 1;
  /// kGrid turns the per-slot carrier-sense and interference scans into
  /// spatial-grid existence queries (O(1) per station instead of O(n));
  /// both are pure "any transmitter within range" booleans over the
  /// same exact distance predicate, so the stats are bit-identical.
  NetIndexMode index_mode = NetIndexMode::kGrid;
};

struct SpatialStation {
  NodeId id = 0;
  Vec2 position;
  Vec2 destination;                ///< where its frames are received
  double arrival_rate_fps = 10.0;
  std::size_t frame_bits = 12000;
};

struct SpatialCsmaStats {
  std::uint64_t offered_frames = 0;
  std::uint64_t delivered_frames = 0;
  std::uint64_t lost_frames = 0;     ///< corrupted at the receiver
  std::uint64_t dropped_frames = 0;  ///< retry limit exceeded
  double throughput_bps = 0.0;
  /// Mean number of stations transmitting simultaneously in busy slots
  /// — the spatial-reuse figure (1.0 = no reuse).
  double mean_concurrency = 0.0;

  [[nodiscard]] double delivery_ratio() const noexcept {
    return offered_frames
               ? static_cast<double>(delivered_frames) / offered_frames
               : 0.0;
  }
  [[nodiscard]] double loss_ratio() const noexcept {
    return offered_frames
               ? static_cast<double>(lost_frames) / offered_frames
               : 0.0;
  }
};

class SpatialCsmaSimulator {
 public:
  SpatialCsmaSimulator(SpatialCsmaConfig config,
                       std::vector<SpatialStation> stations);

  [[nodiscard]] SpatialCsmaStats run(double duration_s);

 private:
  SpatialCsmaConfig config_;
  std::vector<SpatialStation> stations_;
};

}  // namespace comimo
