#include "comimo/mc/adaptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comimo/common/error.h"
#include "comimo/numeric/special.h"

namespace comimo {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

double confidence_z(double confidence) {
  COMIMO_CHECK(confidence > 0.0 && confidence < 1.0,
               "confidence must be in (0, 1)");
  return q_inverse((1.0 - confidence) / 2.0);
}

std::size_t resolve_checkpoint_every(std::size_t chunks,
                                     std::size_t requested) {
  if (requested > 0) return requested;
  return std::max<std::size_t>(1, chunks / 32);
}

double rate_rel_ci(std::uint64_t num, std::uint64_t den, double z) {
  if (num == 0 || den == 0 || num >= den) return kInf;
  const double p = static_cast<double>(num) / static_cast<double>(den);
  // Half-width of the normal interval on p, relative to p:
  // z·sqrt(p(1−p)/den) / p = z·sqrt((1−p)/num).
  return z * std::sqrt((1.0 - p) / static_cast<double>(num));
}

double stop_rel_ci(const McAccumulator& acc, const StopRule& rule, double z,
                   std::size_t min_events) {
  if (!rule.denominator.empty()) {
    const std::uint64_t num = acc.counter(rule.stat);
    if (num < min_events) return kInf;
    return rate_rel_ci(num, acc.counter(rule.denominator), z);
  }
  const RunningStats& s = acc.stat(rule.stat);
  if (s.count() < 2 || s.mean() == 0.0) return kInf;
  const double rel = z * s.std_error() / std::abs(s.mean());
  return std::isfinite(rel) ? rel : kInf;
}

}  // namespace comimo
