// Algorithm 1 — cooperative relay of primary traffic by SUs.
//
// m secondary users receive the primary transmitter's data over a 1×m
// SIMO link (step 1) and forward it to the primary receiver over an m×1
// MISO link (step 2).  This header models the per-step, per-node
// energies:
//   step 1: E_Sr = e^MIMOr        (each SU),  E_Pt = e^MIMOt(1, m) (Pt)
//   step 2: E_St = e^MIMOt(m, 1)  (each SU),  E_Pr = e^MIMOr       (Pr)
//   E_S = E_St + E_Sr             (per-SU relay energy)
#pragma once

#include <cstddef>
#include <cstdint>

#include "comimo/common/constants.h"
#include "comimo/energy/mimo_energy.h"
#include "comimo/energy/optimizer.h"
#include "comimo/phy/ber_sweep.h"

namespace comimo {

/// Static description of a relay deployment.
struct OverlayRelayConfig {
  unsigned num_relays = 2;      ///< m
  double pt_to_su_m = 100.0;    ///< SIMO leg length (Pt → SUs)
  double su_to_pr_m = 100.0;    ///< MISO leg length (SUs → Pr)
  double ber = 5e-4;            ///< target BER of the relayed stream
  double bandwidth_hz = 40e3;   ///< B
};

/// Waveform-level BER of Algorithm 1's two legs, each measured through
/// the batched link kernel at the planned constellation and the
/// solver's ē_b for that leg.
struct OverlayRelayWaveform {
  WaveformBerPoint simo;  ///< step 1: Pt → SUs, 1×m
  WaveformBerPoint miso;  ///< step 2: SUs → Pr, m×1
};

/// Per-step energy report of Algorithm 1.
struct OverlayRelayEnergies {
  int b_simo = 0;        ///< constellation on the Pt→SUs leg
  int b_miso = 0;        ///< constellation on the SUs→Pr leg
  double e_pt = 0.0;     ///< E_Pt: primary transmitter energy/bit
  double e_su_rx = 0.0;  ///< E_Sr: per-SU reception energy/bit
  double e_su_tx = 0.0;  ///< E_St: per-SU transmission energy/bit
  double e_pr = 0.0;     ///< E_Pr: primary receiver energy/bit
  /// E_S = E_St + E_Sr, the per-SU relay cost the planner budgets.
  [[nodiscard]] double e_su_total() const noexcept {
    return e_su_rx + e_su_tx;
  }
};

class OverlayRelayScheme {
 public:
  explicit OverlayRelayScheme(const SystemParams& params = {});

  /// Computes the per-step energies; constellations are optimized per
  /// leg to minimize the corresponding node energy (the paper's table-
  /// driven rule).
  [[nodiscard]] OverlayRelayEnergies plan(
      const OverlayRelayConfig& config) const;

  /// Energy per bit of the direct Pt→Pr SISO transmission at distance
  /// d1 and BER p (the E_1 reference of §3), minimized over b.
  [[nodiscard]] ConstellationChoice direct_transmission_energy(
      double d1_m, double p, double bandwidth_hz) const;

  /// Cross-checks a planned relay against actual modulated blocks: each
  /// leg runs at γ_b = ē_b(p, b, mt, mr)/N0 with the constellations the
  /// plan chose.  Relay counts above the STBC design range fall back to
  /// the G4 code on the MISO leg.
  [[nodiscard]] OverlayRelayWaveform measure_relay_waveform(
      const OverlayRelayConfig& config, const OverlayRelayEnergies& energies,
      std::size_t blocks = 4000, std::uint64_t seed = 1,
      ThreadPool* pool = nullptr) const;

  /// The optimizer's energy model: plan() and measure_relay_waveform()
  /// read one ē_b memo.
  [[nodiscard]] const MimoEnergyModel& energy_model() const noexcept {
    return optimizer_.energy_model();
  }

 private:
  SystemParams params_;
  ConstellationOptimizer optimizer_;
};

}  // namespace comimo
