#include "comimo/net/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "comimo/common/error.h"

namespace comimo {

SpatialGrid::SpatialGrid(const std::vector<std::uint32_t>& keys,
                         const std::vector<Vec2>& positions,
                         double cell_hint_m) {
  COMIMO_CHECK(keys.size() == positions.size(),
               "spatial grid: keys/positions size mismatch");
  COMIMO_CHECK(cell_hint_m > 0.0, "spatial grid: cell size must be positive");
  const std::size_t n = positions.size();
  live_ = n;
  cell_hint_m_ = cell_hint_m;
  if (n == 0) {
    nx_ = ny_ = 1;
    cell_m_ = cell_hint_m;
    cell_start_.assign(2, 0);
    return;
  }

  double max_x = positions[0].x, max_y = positions[0].y;
  min_x_ = positions[0].x;
  min_y_ = positions[0].y;
  for (const Vec2& p : positions) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const double ext_x = max_x - min_x_;
  const double ext_y = max_y - min_y_;
  // Cap the table at ~2 cells per item so the offsets stay O(n) bytes
  // even when the hint is tiny relative to the field.
  cell_m_ = cell_hint_m;
  const double cell_cap = static_cast<double>(std::max<std::size_t>(n, 16) * 2);
  for (int iter = 0; iter < 64; ++iter) {
    const double fx = std::floor(ext_x / cell_m_) + 1.0;
    const double fy = std::floor(ext_y / cell_m_) + 1.0;
    if (fx * fy <= cell_cap) break;
    cell_m_ *= std::sqrt(fx * fy / cell_cap) * 1.0000001;
  }
  nx_ = static_cast<std::uint32_t>(std::floor(ext_x / cell_m_)) + 1;
  ny_ = static_cast<std::uint32_t>(std::floor(ext_y / cell_m_)) + 1;

  // Counting sort into CSR cells; build order within a cell is input
  // order (callers re-sort query hits into their own traversal order).
  const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;
  cell_start_.assign(cells + 1, 0);
  std::vector<std::uint32_t> cell_index(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = cell_of(positions[i]);
    cell_index[i] = static_cast<std::uint32_t>(c);
    ++cell_start_[c + 1];
  }
  std::partial_sum(cell_start_.begin(), cell_start_.end(),
                   cell_start_.begin());
  slots_.resize(n);
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    COMIMO_CHECK(keys[i] != kTombstone, "spatial grid: reserved key");
    Slot& slot = slots_[cursor[cell_index[i]]++];
    slot.key = keys[i];
    slot.position = positions[i];
  }
}

SpatialGrid::SpatialGrid(const std::vector<Vec2>& positions,
                         double cell_hint_m)
    : SpatialGrid(
          [&positions] {
            std::vector<std::uint32_t> keys(positions.size());
            std::iota(keys.begin(), keys.end(), 0u);
            return keys;
          }(),
          positions, cell_hint_m) {}

std::size_t SpatialGrid::cell_of(const Vec2& p) const noexcept {
  const double gx = std::floor((p.x - min_x_) / cell_m_);
  const double gy = std::floor((p.y - min_y_) / cell_m_);
  const std::uint32_t cx = static_cast<std::uint32_t>(
      std::clamp(gx, 0.0, static_cast<double>(nx_ - 1)));
  const std::uint32_t cy = static_cast<std::uint32_t>(
      std::clamp(gy, 0.0, static_cast<double>(ny_ - 1)));
  return static_cast<std::size_t>(cy) * nx_ + cx;
}

void SpatialGrid::cell_range(const Vec2& center, double radius,
                             std::uint32_t& cx0, std::uint32_t& cx1,
                             std::uint32_t& cy0,
                             std::uint32_t& cy1) const noexcept {
  // One extra cell of margin on every side: any item within `radius`
  // has |dx|,|dy| <= radius, so even with worst-case rounding of the
  // floor arguments its cell cannot lie outside the padded range.
  const double lo_x = std::floor((center.x - radius - min_x_) / cell_m_) - 1.0;
  const double hi_x = std::floor((center.x + radius - min_x_) / cell_m_) + 1.0;
  const double lo_y = std::floor((center.y - radius - min_y_) / cell_m_) - 1.0;
  const double hi_y = std::floor((center.y + radius - min_y_) / cell_m_) + 1.0;
  cx0 = static_cast<std::uint32_t>(
      std::clamp(lo_x, 0.0, static_cast<double>(nx_ - 1)));
  cx1 = static_cast<std::uint32_t>(
      std::clamp(hi_x, 0.0, static_cast<double>(nx_ - 1)));
  cy0 = static_cast<std::uint32_t>(
      std::clamp(lo_y, 0.0, static_cast<double>(ny_ - 1)));
  cy1 = static_cast<std::uint32_t>(
      std::clamp(hi_y, 0.0, static_cast<double>(ny_ - 1)));
}

void SpatialGrid::query(const Vec2& center, double radius,
                        std::vector<std::uint32_t>& out) const {
  for_each_within(center, radius,
                  [&out](std::uint32_t key, const Vec2&) {
                    out.push_back(key);
                  });
}

void SpatialGrid::remove(std::uint32_t key, const Vec2& position) {
  if (slots_.empty()) return;
  const std::size_t cell = cell_of(position);
  const std::uint32_t end = cell_start_[cell + 1];
  for (std::uint32_t s = cell_start_[cell]; s < end; ++s) {
    if (slots_[s].key == key) {
      slots_[s].key = kTombstone;
      --live_;
      ++dead_;
      // Threshold-triggered compaction: once the dead outnumber the
      // living (past a small floor that keeps tiny indexes free of
      // rebuild churn), the amortized cost is O(1) per removal while
      // scans and memory stay proportional to the live population.
      if (dead_ > live_ && dead_ >= 64) compact();
      return;
    }
  }
}

void SpatialGrid::compact() {
  if (dead_ == 0) return;
  // Gather survivors in slot (cell-major) order and rebuild through the
  // constructor: fresh bounding box, fresh cell geometry from the
  // original hint, fresh CSR — the exact state a from-scratch build
  // over the live set would produce, which is what keeps the
  // cells/live-item cap and the incremental-vs-rebuild differential
  // tests honest.
  std::vector<std::uint32_t> keys;
  std::vector<Vec2> positions;
  keys.reserve(live_);
  positions.reserve(live_);
  for (const Slot& slot : slots_) {
    if (slot.key == kTombstone) continue;
    keys.push_back(slot.key);
    positions.push_back(slot.position);
  }
  *this = SpatialGrid(keys, positions, cell_hint_m_);
}

std::size_t SpatialGrid::bytes() const noexcept {
  return cell_start_.capacity() * sizeof(std::uint32_t) +
         slots_.capacity() * sizeof(Slot);
}

}  // namespace comimo
