// Constellation-size optimization.
//
// §6: "the minimum value of E_S is found by changing constellation size b
// from 1 to 16".  The variable-rate system trades PA energy (grows with
// b) against circuit energy (shrinks with b, since the same bits take
// fewer symbols); these helpers search the discrete b range for the
// minimum-energy or maximum-distance operating point.
#pragma once

#include <functional>

#include "comimo/energy/local_energy.h"
#include "comimo/energy/mimo_energy.h"

namespace comimo {

/// Result of a constellation search.
struct ConstellationChoice {
  int b = 0;                  ///< optimal bits/symbol
  double value = 0.0;         ///< optimal objective value
  EnergyBreakdown breakdown;  ///< energy split at the optimum (when
                              ///< the objective is an energy)
};

class ConstellationOptimizer {
 public:
  explicit ConstellationOptimizer(
      const SystemParams& params = {},
      int b_min = kMinConstellationBits,
      int b_max = kMaxConstellationBits,
      EbBarConvention convention = EbBarConvention::kPerAntennaSplit);

  /// Minimizes the per-node long-haul transmit energy e^MIMOt over b.
  [[nodiscard]] ConstellationChoice min_mimo_tx_energy(
      double p, unsigned mt, unsigned mr, double distance_m,
      double bw_hz) const;

  /// Minimizes e^MIMOt(mt,mr) + e^MIMOr — the per-SU relay energy E_S of
  /// Algorithm 1 (transmit on the MISO leg + receive on the SIMO leg).
  [[nodiscard]] ConstellationChoice min_relay_energy(
      double p, unsigned mt, unsigned mr, double distance_m,
      double bw_hz) const;

  /// Minimizes the local (intra-cluster) transmit energy e^Lt over b.
  [[nodiscard]] ConstellationChoice min_local_tx_energy(double p, double d_m,
                                                        double bw_hz) const;

  /// Maximizes distance_for_energy over b — the largest link length
  /// reachable within an energy budget (used for D2/D3 in Algorithm 1).
  /// When `include_rx_energy` is true the budget must also cover
  /// e^MIMOr(b) (the relay's reception on the other leg, as in E_S of
  /// Algorithm 1).  Returns b = 0 and value = 0 when no b is feasible.
  [[nodiscard]] ConstellationChoice max_distance_for_energy(
      double energy_per_bit, double p, unsigned mt, unsigned mr,
      double bw_hz, bool include_rx_energy = false) const;

  /// Generic discrete search; `objective(b)` may throw InfeasibleError to
  /// mark b infeasible.  Throws InfeasibleError if every b is infeasible.
  [[nodiscard]] ConstellationChoice minimize(
      const std::function<double(int)>& objective) const;

  /// The energy model, and with it the ē_b memo, every search reads.
  [[nodiscard]] const MimoEnergyModel& energy_model() const noexcept {
    return mimo_;
  }
  [[nodiscard]] int b_min() const noexcept { return b_min_; }
  [[nodiscard]] int b_max() const noexcept { return b_max_; }

 private:
  SystemParams params_;
  LocalEnergyModel local_;
  MimoEnergyModel mimo_;
  int b_min_;
  int b_max_;
};

}  // namespace comimo
