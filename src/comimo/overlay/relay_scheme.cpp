#include "comimo/overlay/relay_scheme.h"

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

OverlayRelayScheme::OverlayRelayScheme(const SystemParams& params)
    : params_(params), optimizer_(params) {}

OverlayRelayEnergies OverlayRelayScheme::plan(
    const OverlayRelayConfig& config) const {
  COMIMO_CHECK(config.num_relays >= 1, "need at least one relay");
  COMIMO_CHECK(config.pt_to_su_m > 0.0 && config.su_to_pr_m > 0.0,
               "leg lengths must be positive");
  OverlayRelayEnergies e;

  // Step 1 — Pt transmits over the 1×m SIMO link; b minimizes Pt's
  // transmit energy.
  const ConstellationChoice simo = optimizer_.min_mimo_tx_energy(
      config.ber, 1, config.num_relays, config.pt_to_su_m,
      config.bandwidth_hz);
  e.b_simo = simo.b;
  e.e_pt = simo.value;
  e.e_su_rx = energy_model().rx_energy(simo.b, config.bandwidth_hz);

  // Step 2 — the m SUs transmit over the m×1 MISO link; b minimizes the
  // per-SU transmit energy.
  const ConstellationChoice miso = optimizer_.min_mimo_tx_energy(
      config.ber, config.num_relays, 1, config.su_to_pr_m,
      config.bandwidth_hz);
  e.b_miso = miso.b;
  e.e_su_tx = miso.value;
  e.e_pr = energy_model().rx_energy(miso.b, config.bandwidth_hz);
  return e;
}

ConstellationChoice OverlayRelayScheme::direct_transmission_energy(
    double d1_m, double p, double bandwidth_hz) const {
  return optimizer_.min_mimo_tx_energy(p, 1, 1, d1_m, bandwidth_hz);
}

OverlayRelayWaveform OverlayRelayScheme::measure_relay_waveform(
    const OverlayRelayConfig& config, const OverlayRelayEnergies& energies,
    std::size_t blocks, std::uint64_t seed, ThreadPool* pool) const {
  COMIMO_CHECK(config.num_relays >= 1, "need at least one relay");
  COMIMO_CHECK(blocks >= 1, "need at least one block");
  COMIMO_CHECK(energies.b_simo >= 1 && energies.b_miso >= 1,
               "energies must come from plan()");
  const auto m_tx = static_cast<unsigned>(stbc_supported_tx(config.num_relays));

  OverlayRelayWaveform out;
  {
    // Step 1 — Pt transmits, the m SUs receive: a 1×m link.
    WaveformBerConfig cfg;
    cfg.b = energies.b_simo;
    cfg.mt = 1;
    cfg.mr = config.num_relays;
    cfg.blocks = blocks;
    cfg.seed = seed;
    cfg.pool = pool;
    const double ebar = energy_model().ebar(config.ber, cfg.b, 1, cfg.mr);
    out.simo =
        measure_waveform_ber(cfg, linear_to_db(ebar / params_.n0_w_per_hz));
  }
  {
    // Step 2 — the SUs transmit to Pr: an m×1 link (clamped to the
    // largest orthogonal design when m > 4).
    WaveformBerConfig cfg;
    cfg.b = energies.b_miso;
    cfg.mt = m_tx;
    cfg.mr = 1;
    cfg.blocks = blocks;
    cfg.seed = seed + 0x51D0;  // independent stream family per leg
    cfg.pool = pool;
    const double ebar = energy_model().ebar(config.ber, cfg.b, m_tx, 1);
    out.miso =
        measure_waveform_ber(cfg, linear_to_db(ebar / params_.n0_w_per_hz));
  }
  return out;
}

}  // namespace comimo
