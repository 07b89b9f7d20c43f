// Algorithm 2 — one cooperative hop between SU clusters.
//
// Step 1: the head of the transmit cluster ST broadcasts locally (one
//         e^Lt transmission, only when mt > 1);
// Step 2: the mt nodes of ST transmit the STBC-encoded stream over the
//         long-haul mt×mr link (each pays e^MIMOt(mt,mr); all mt PAs are
//         active simultaneously);
// Step 3: the mr receivers forward to the head of SR in separate slots
//         (mr−1 local e^Lt transmissions, only when mr > 1).
//
// The quantities the paper evaluates:
//   * peak PA energy/bit  E_PA = max(e^Lt_PA, mt·e^MIMOt_PA)  (§4);
//   * total PA energy/bit across all SUs (Fig. 7's y axis).
#pragma once

#include <cstddef>
#include <cstdint>

#include "comimo/common/constants.h"
#include "comimo/energy/local_energy.h"
#include "comimo/energy/mimo_energy.h"
#include "comimo/phy/ber_sweep.h"

namespace comimo {

struct UnderlayHopConfig {
  unsigned mt = 2;            ///< transmit-cluster cooperators
  unsigned mr = 2;            ///< receive-cluster cooperators
  double hop_distance_m = 200.0;  ///< long-haul D
  double cluster_diameter_m = 1.0;  ///< d
  double ber = 1e-3;          ///< target BER p_b
  double bandwidth_hz = 40e3;
};

/// Full energy ledger of one cooperative hop.
struct UnderlayHopPlan {
  UnderlayHopConfig config;
  int b = 0;  ///< chosen constellation (minimizes ē_b per the paper)
  double ebar = 0.0;  ///< the table value ē_b(p, b, mt, mr)

  // Per-transmission PA energies per bit:
  double local_tx_pa = 0.0;    ///< e^Lt_PA (one local broadcast)
  double mimo_tx_pa = 0.0;     ///< e^MIMOt_PA per long-haul transmitter
  // Circuit energies per bit:
  double local_tx_circuit = 0.0;
  double local_rx = 0.0;       ///< e^Lr
  double mimo_tx_circuit = 0.0;
  double mimo_rx = 0.0;        ///< e^MIMOr

  /// Peak instantaneous PA energy/bit, §4's E_PA.
  [[nodiscard]] double peak_pa() const noexcept;
  /// Total PA energy/bit summed over every SU transmission in the hop
  /// (Fig. 7's quantity).
  [[nodiscard]] double total_pa() const noexcept;
  /// Total energy/bit including circuits and receptions — the quantity a
  /// network-lifetime planner budgets per hop.
  [[nodiscard]] double total_energy() const noexcept;
};

/// Which objective the constellation search minimizes.
enum class BSelectionRule {
  kMinEbar,        ///< Algorithm 2's stated rule: minimize ē_b
  kMinPeakPa,      ///< §4's constraint driver: minimize E_PA (peak)
  kMinTotalPa,     ///< Fig. 7's plotted quantity
  kMinTotalEnergy  ///< lifetime-oriented: PA + circuits + receptions
};

class UnderlayCooperativeHop {
 public:
  explicit UnderlayCooperativeHop(const SystemParams& params = {});

  /// Plans the hop; b is selected by `rule` over [kMinConstellationBits,
  /// kMaxConstellationBits], skipping every b at which the BER target is
  /// unreachable.  The ē_b values come from one read of the energy
  /// model's memo (MimoEnergyModel::ebar_row), so a planner solves each
  /// (p, mt, mr) once however many hops it plans, and one planner may
  /// plan on many threads at once.  The ablation bench compares the
  /// rules.
  [[nodiscard]] UnderlayHopPlan plan(
      const UnderlayHopConfig& config,
      BSelectionRule rule = BSelectionRule::kMinTotalPa) const;

  /// Re-plans `plan` with the cooperator counts shrunk to the survivors
  /// — the resilience layer's degradation step when transmitters or
  /// receivers drop out mid-route.  Counts are clamped to >= 1 (SISO is
  /// the floor); the geometry, BER target, and bandwidth carry over.
  [[nodiscard]] UnderlayHopPlan replan_shrunk(
      const UnderlayHopPlan& plan, unsigned alive_tx, unsigned alive_rx,
      BSelectionRule rule = BSelectionRule::kMinTotalPa) const;

  [[nodiscard]] const SystemParams& params() const noexcept {
    return params_;
  }

 private:
  [[nodiscard]] UnderlayHopPlan plan_with_b(const UnderlayHopConfig& config,
                                            int b, double ebar) const;

  SystemParams params_;
  LocalEnergyModel local_;
  MimoEnergyModel mimo_;
};

/// Waveform-level verification of one planned hop.
struct PlanBerMeasurement {
  double gamma_b_db = 0.0;  ///< the plan's ē_b/N0 expressed in dB
  double ber = 0.0;
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  McRunInfo info;
};

/// Runs the plan's chosen operating point (b, mt, mr, ē_b) through the
/// batched waveform link kernel: γ_b = ē_b/N0 per branch per bit, mt
/// clamped to the supported STBC range.  Lets planners cross-check the
/// analytic ē_b table against actual modulated blocks without leaving
/// the underlay API.
[[nodiscard]] PlanBerMeasurement measure_plan_ber(
    const UnderlayHopPlan& plan, std::size_t blocks, std::uint64_t seed = 1,
    const SystemParams& params = {}, std::size_t chunk_size = 0,
    ThreadPool* pool = nullptr);

}  // namespace comimo
