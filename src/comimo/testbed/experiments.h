// The simulated USRP/GNU Radio experiments of §6.4.
//
// These harnesses substitute for the paper's indoor 2.45 GHz testbed
// (see DESIGN.md §4): the same signal chains — BPSK with decode-and-
// forward relays and equal-gain combining for the overlay tables, GMSK
// packet transfer for the underlay table, a two-element transmit
// beamformer for Fig. 8 — run over a Rician block-fading channel whose
// mean SNRs are calibrated so the *non-cooperative baselines* land near
// the paper's numbers; the cooperative gains then emerge from the
// mechanisms themselves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comimo/phy/combining.h"
#include "comimo/phy/gmsk.h"
#include "comimo/testbed/image.h"

namespace comimo {

class AwgnChannel;

// ---------------------------------------------------------------------
// Overlay BER experiments (Tables 2 and 3)
// ---------------------------------------------------------------------

/// One relay's two link qualities.
struct RelayLinkSnr {
  double pt_relay_db = 12.0;  ///< Pt → relay mean symbol SNR
  double relay_pr_db = 12.0;  ///< relay → Pr mean symbol SNR
};

struct OverlayBerConfig {
  std::size_t total_bits = 100000;   ///< the paper's 100 000 binary digits
  std::size_t packet_bits = 1000;    ///< block-fading granularity
  double direct_snr_db = 2.0;        ///< Pt → Pr (obstructed) mean SNR
  std::vector<RelayLinkSnr> relays{RelayLinkSnr{}};
  double rician_k = 2.0;             ///< indoor K-factor of every link
  CombinerKind combiner = CombinerKind::kEqualGain;  ///< §6.4's choice
  /// Per-packet relay selection (an extension beyond the paper's
  /// always-on relays): only the `max_active_relays` relays with the
  /// best instantaneous bottleneck SNR min(|g|², |q|²) forward in
  /// phase 2.  0 = all relays forward (the paper's behaviour).
  unsigned max_active_relays = 0;
  /// Channel knowledge: 0 = genie CSI (the paper's "H assumed known");
  /// > 0 = every receiver estimates each branch gain from this many
  /// BPSK pilot symbols per packet (the preamble's job on the real
  /// testbed).
  unsigned pilot_symbols = 0;
  std::uint64_t seed = 1;
};

struct OverlayBerResult {
  double ber_cooperative = 0.0;
  double ber_direct = 0.0;
  std::size_t bits = 0;
  std::size_t errors_cooperative = 0;
  std::size_t errors_direct = 0;
  /// Raw decision BER at each relay (diagnostics).
  std::vector<double> relay_ber;
  /// Total number of phase-2 relay transmissions actually made — the
  /// energy proxy relay selection optimizes.
  std::size_t relay_transmissions = 0;
};

/// Runs one experiment: phase 1 broadcasts from Pt (Pr and all relays
/// listen), then each relay decode-and-forwards in its own slot; Pr
/// combines the direct observation with every relayed copy.  The
/// "without cooperation" column decides on the direct observation alone
/// (same realizations, so the comparison is paired).
[[nodiscard]] OverlayBerResult run_overlay_ber(const OverlayBerConfig& cfg);

/// Paper-calibrated presets.
[[nodiscard]] OverlayBerConfig table2_single_relay_config(
    std::uint64_t seed = 1);
[[nodiscard]] OverlayBerConfig table3_multi_relay_config(
    unsigned num_relays, std::uint64_t seed = 1);

// ---------------------------------------------------------------------
// Underlay PER experiment (Table 4)
// ---------------------------------------------------------------------

struct UnderlayPerConfig {
  std::size_t num_packets = 474;     ///< the paper's image
  std::size_t packet_bytes = 1500;
  double amplitude = 800.0;          ///< transmit amplitude (DAC units)
  double reference_amplitude = 800.0;
  double snr_at_reference_db = 20.0; ///< solo mean symbol SNR at the
                                     ///< reference amplitude (calibrated
                                     ///< so the solo baselines land near
                                     ///< Table 4's 25/70/97%)
  bool cooperative = true;           ///< two simultaneous transmitters
  double rician_k = 6.0;
  /// Relative phase spread of the two co-located transmitters' LOS
  /// components [rad].  The paper's two USRPs sat "next to each other"
  /// transmitting the same waveform — near-coherent superposition —
  /// so the default jitter is small; π would model fully independent
  /// carriers.
  double coop_phase_jitter_rad = 0.2;
  GmskConfig gmsk{};
  std::uint64_t seed = 1;
};

struct UnderlayPerResult {
  double per = 0.0;
  std::size_t packets_sent = 0;
  std::size_t packets_lost = 0;
  ReassemblyReport reassembly;  ///< the recovered "image"
};

[[nodiscard]] UnderlayPerResult run_underlay_per(const UnderlayPerConfig& cfg);

/// A receiver's state for underlay_receive(), reused across frames.
struct UnderlayRx {
  BitVec bits;                ///< the last frame's decisions
  std::size_t certified = 0;  ///< how many of them a bound settled
  // Scratch, per pattern: the first bound's word limit and |h|²·margin.
  std::vector<std::int64_t> small_word;
  std::vector<double> certain;
};

/// One frame through Table 4's link, y = h·s + w with s =
/// modem.modulate(bits) and one `noise` sample per sample of s, and the
/// differential detector's decisions on it: `rx.bits` equals
/// modem.demodulate(y, bits.size()) bit for bit, and `noise` ends where
/// drawing every sample would leave it.
///
/// Only the detector's grid matters, and most of it is never evaluated:
/// a decision whose bit pattern gives a noise-free margin |h|²·μ that
/// the noise provably cannot cross takes the pattern's sign.  The bounds
/// come from each grid sample's first noise word (AwgnChannel's two
/// bounds); the words of every sample are still drawn or skipped.
/// Other decisions are evaluated exactly, each grid sample at most once.
/// Returns `rx.bits`.
const BitVec& underlay_receive(const GmskModem& modem,
                               std::span<const std::uint8_t> bits,
                               const cplx& h, AwgnChannel& noise,
                               UnderlayRx& rx);

// ---------------------------------------------------------------------
// Interweave beam-pattern experiment (Fig. 8)
// ---------------------------------------------------------------------

struct BeamPatternConfig {
  double null_angle_deg = 120.0;  ///< design null direction
  double element_spacing_wavelengths = 0.5;
  double radius_m = 1.0;          ///< receiver semicircle radius (2 m diam)
  double wavelength_m = 0.1224;   ///< 2.45 GHz
  double step_deg = 20.0;         ///< the paper's measurement increment
  std::size_t bits_per_point = 2000;
  double snr_db = 20.0;
  double multipath_scatter = 0.15;  ///< scattered-to-LOS amplitude ratio
  std::uint64_t seed = 1;
};

struct BeamPatternResult {
  std::vector<double> angles_deg;
  std::vector<double> ideal;          ///< designed radiation pattern
  std::vector<double> measured_coop;  ///< beamformer through multipath
  std::vector<double> measured_siso;  ///< single-element reference
  /// Measured amplitude at the design null direction.
  [[nodiscard]] double null_residual() const;
};

[[nodiscard]] BeamPatternResult run_beam_pattern(const BeamPatternConfig& cfg);

// ---------------------------------------------------------------------
// Interweave coexistence experiment (§5's central claim)
// ---------------------------------------------------------------------

/// Measures what the null steering actually buys: a primary BPSK link
/// Pt→Pr runs while the SU pair transmits *simultaneously* in the same
/// band toward Sr.  Three conditions are compared on identical
/// channel/noise realizations:
///   (a) SUs silent            — the PU baseline;
///   (b) SUs transmit, nulled  — Algorithm 3's δ imposed;
///   (c) SUs transmit, un-nulled — no phase control.
struct InterweaveCoexistenceConfig {
  std::size_t total_bits = 50000;
  double pu_snr_db = 10.0;   ///< Pt→Pr link SNR
  /// SU interference-to-noise ratio at Pr if *one* SU element
  /// transmitted un-nulled (the geometry scales the rest).
  double su_inr_db = 6.0;
  double su_link_snr_db = 10.0;  ///< pair→Sr desired-link SNR per element
  /// Residual amplitude of the nulled pair toward Pr (0 = ideal null;
  /// Fig. 8's indoor measurement suggests ~0.1–0.2).
  double null_residual = 0.1;
  std::uint64_t seed = 1;
};

struct InterweaveCoexistenceResult {
  double pr_ber_baseline = 0.0;   ///< SUs silent
  double pr_ber_nulled = 0.0;     ///< SUs transmitting, null steered
  double pr_ber_unnulled = 0.0;   ///< SUs transmitting, no null
  double sr_ber_nulled = 0.0;     ///< the secondary link's own BER
};

[[nodiscard]] InterweaveCoexistenceResult run_interweave_coexistence(
    const InterweaveCoexistenceConfig& cfg);

// ---------------------------------------------------------------------
// Shared helper
// ---------------------------------------------------------------------

/// One Rician block-fading coefficient with mean power `mean_power` and
/// K-factor `k` (k = 0 gives Rayleigh); the LOS component carries a
/// uniform random phase (unsynchronized oscillators).
[[nodiscard]] cplx rician_coefficient(Rng& rng, double k, double mean_power);

}  // namespace comimo
