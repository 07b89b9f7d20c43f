#include "comimo/energy/optimizer.h"

#include <cmath>
#include <limits>

#include "comimo/common/error.h"

namespace comimo {

ConstellationOptimizer::ConstellationOptimizer(const SystemParams& params,
                                               int b_min, int b_max,
                                               EbBarConvention convention)
    : params_(params),
      local_(params),
      mimo_(params, convention),
      b_min_(b_min),
      b_max_(b_max) {
  COMIMO_CHECK(b_min >= kMinConstellationBits && b_max >= b_min &&
                   b_max <= kMaxConstellationBits,
               "invalid constellation range");
}

ConstellationChoice ConstellationOptimizer::minimize(
    const std::function<double(int)>& objective) const {
  ConstellationChoice best;
  best.value = std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  for (int b = b_min_; b <= b_max_; ++b) {
    double v;
    try {
      v = objective(b);
    } catch (const InfeasibleError&) {
      continue;
    } catch (const NumericError&) {
      continue;  // e.g. BER target unreachable at this b
    }
    any_feasible = true;
    if (v < best.value) {
      best.value = v;
      best.b = b;
    }
  }
  if (!any_feasible) {
    throw InfeasibleError("no feasible constellation size in range");
  }
  return best;
}

ConstellationChoice ConstellationOptimizer::min_mimo_tx_energy(
    double p, unsigned mt, unsigned mr, double distance_m,
    double bw_hz) const {
  ConstellationChoice best = minimize([&](int b) {
    return mimo_.tx_energy(b, p, mt, mr, distance_m, bw_hz).total();
  });
  best.breakdown.pa = mimo_.pa_energy(best.b, p, mt, mr, distance_m);
  best.breakdown.circuit = mimo_.tx_circuit_energy(best.b, bw_hz);
  return best;
}

ConstellationChoice ConstellationOptimizer::min_relay_energy(
    double p, unsigned mt, unsigned mr, double distance_m,
    double bw_hz) const {
  ConstellationChoice best = minimize([&](int b) {
    return mimo_.tx_energy(b, p, mt, mr, distance_m, bw_hz).total() +
           mimo_.rx_energy(b, bw_hz);
  });
  best.breakdown.pa = mimo_.pa_energy(best.b, p, mt, mr, distance_m);
  best.breakdown.circuit =
      mimo_.tx_circuit_energy(best.b, bw_hz) + mimo_.rx_energy(best.b, bw_hz);
  return best;
}

ConstellationChoice ConstellationOptimizer::min_local_tx_energy(
    double p, double d_m, double bw_hz) const {
  ConstellationChoice best = minimize([&](int b) {
    return local_.tx_energy(b, p, d_m, bw_hz).total();
  });
  best.breakdown = local_.tx_energy(best.b, p, d_m, bw_hz);
  return best;
}

ConstellationChoice ConstellationOptimizer::max_distance_for_energy(
    double energy_per_bit, double p, unsigned mt, unsigned mr, double bw_hz,
    bool include_rx_energy) const {
  // Maximize distance == minimize (-distance); per-b infeasibility (budget
  // below circuit floor) is skipped by minimize().
  ConstellationChoice best;
  try {
    best = minimize([&](int b) {
      const double extra =
          include_rx_energy ? mimo_.rx_energy(b, bw_hz) : 0.0;
      const double budget = energy_per_bit - extra;
      if (budget <= 0.0) {
        throw InfeasibleError("budget below receive energy");
      }
      return -mimo_.distance_for_energy(budget, b, p, mt, mr, bw_hz);
    });
  } catch (const InfeasibleError&) {
    return ConstellationChoice{};  // b = 0 marks "no feasible b"
  }
  best.value = -best.value;
  return best;
}

}  // namespace comimo
