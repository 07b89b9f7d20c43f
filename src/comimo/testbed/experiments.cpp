#include "comimo/testbed/experiments.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "comimo/channel/awgn.h"
#include "comimo/common/error.h"
#include "comimo/common/units.h"
#include "comimo/interweave/pair_beamformer.h"
#include "comimo/obs/metrics.h"
#include "comimo/phy/detector.h"
#include "comimo/testbed/channel_estimator.h"
#include "comimo/testbed/framing.h"
#include "comimo/testbed/relay.h"

namespace comimo {

cplx rician_coefficient(Rng& rng, double k, double mean_power) {
  COMIMO_CHECK(k >= 0.0 && mean_power >= 0.0, "invalid Rician parameters");
  const double los_mag = std::sqrt(mean_power * k / (k + 1.0));
  const double phase = rng.uniform(0.0, 2.0 * kPi);
  const cplx los{los_mag * std::cos(phase), los_mag * std::sin(phase)};
  return los + rng.complex_gaussian(mean_power / (k + 1.0));
}

// ---------------------------------------------------------------------
// Overlay BER (Tables 2–3)
// ---------------------------------------------------------------------

OverlayBerResult run_overlay_ber(const OverlayBerConfig& cfg) {
  COMIMO_CHECK(cfg.total_bits >= 1, "need bits to send");
  COMIMO_CHECK(cfg.packet_bits >= 1, "invalid packet size");
  COMIMO_CHECK(!cfg.relays.empty(), "need at least one relay");

  const BpskModulator modem;
  const DecodeForwardRelay relay;
  Rng rng(cfg.seed);
  AwgnChannel noise(1.0, Rng(cfg.seed, 0xA0A0));  // N0 = 1 reference

  // Known pilot waveform shared by all branches (a preamble).
  const std::vector<cplx> pilot_syms =
      cfg.pilot_symbols > 0
          ? modem.modulate(
                random_bits(cfg.pilot_symbols, cfg.seed ^ 0xB11075ULL))
          : std::vector<cplx>{};
  // Returns the gain the receiver *uses*: the truth under genie CSI,
  // or the LS estimate from a fresh pilot transmission through `h`.
  const auto observed_gain = [&](const cplx& h) {
    if (cfg.pilot_symbols == 0) return h;
    std::vector<cplx> rx(pilot_syms.size());
    for (std::size_t i = 0; i < rx.size(); ++i) {
      rx[i] = h * pilot_syms[i] + noise.sample();
    }
    return estimate_gain(pilot_syms, rx);
  };

  const double direct_power = db_to_linear(cfg.direct_snr_db);
  OverlayBerResult result;
  result.relay_ber.assign(cfg.relays.size(), 0.0);
  std::vector<std::size_t> relay_errors(cfg.relays.size(), 0);

  std::size_t sent = 0;
  while (sent < cfg.total_bits) {
    const std::size_t n = std::min(cfg.packet_bits, cfg.total_bits - sent);
    const BitVec bits = random_bits(n, cfg.seed ^ (sent * 0x9E3779B9ULL));
    const std::vector<cplx> x = modem.modulate(bits);

    // Phase 1: Pt broadcasts; Pr and every relay listen on independent
    // block-fading channels.
    const cplx h_direct =
        rician_coefficient(rng, cfg.rician_k, direct_power);
    std::vector<cplx> y_direct(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      y_direct[i] = h_direct * x[i] + noise.sample();
    }

    // Draw both fading legs of every relay for this packet (the heads
    // know the channel state, §2.3).
    std::vector<cplx> g_leg(cfg.relays.size());
    std::vector<cplx> q_leg(cfg.relays.size());
    for (std::size_t r = 0; r < cfg.relays.size(); ++r) {
      g_leg[r] = rician_coefficient(
          rng, cfg.rician_k, db_to_linear(cfg.relays[r].pt_relay_db));
      q_leg[r] = rician_coefficient(
          rng, cfg.rician_k, db_to_linear(cfg.relays[r].relay_pr_db));
    }
    // Relay selection (extension): keep only the best-k relays by
    // instantaneous bottleneck SNR; 0 keeps all (the paper's setup).
    std::vector<bool> active(cfg.relays.size(), true);
    if (cfg.max_active_relays > 0 &&
        cfg.max_active_relays < cfg.relays.size()) {
      std::vector<std::size_t> order(cfg.relays.size());
      for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
      const auto utility = [&](std::size_t r) {
        return std::min(std::norm(g_leg[r]), std::norm(q_leg[r]));
      };
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return utility(a) > utility(b);
                });
      active.assign(cfg.relays.size(), false);
      for (unsigned k = 0; k < cfg.max_active_relays; ++k) {
        active[order[k]] = true;
      }
    }

    // Branch set for the combiner: direct first, then one per active
    // relay (gains as the receiver knows them).
    std::vector<std::vector<cplx>> branches{y_direct};
    std::vector<cplx> gains{observed_gain(h_direct)};

    for (std::size_t r = 0; r < cfg.relays.size(); ++r) {
      // Phase-1 reception happens at every relay regardless of
      // selection (listening is how the relay would forward at all).
      const cplx g = g_leg[r];
      std::vector<cplx> y_relay(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        y_relay[i] = g * x[i] + noise.sample();
      }
      const BitVec relay_bits = relay.decode(y_relay, observed_gain(g));
      relay_errors[r] += count_bit_errors(bits, relay_bits);
      if (!active[r]) continue;
      const std::vector<cplx> x_fwd = modem.modulate(relay_bits);

      // Phase 2 (slot r): the selected relay forwards to Pr.
      const cplx q = q_leg[r];
      std::vector<cplx> z(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        z[i] = q * x_fwd[i] + noise.sample();
      }
      branches.push_back(std::move(z));
      gains.push_back(observed_gain(q));
      ++result.relay_transmissions;
    }

    // Cooperative decision: combine all observations.
    const std::vector<cplx> combined =
        combine(cfg.combiner, branches, gains);
    const BitVec coop_bits = modem.demodulate(combined);
    result.errors_cooperative += count_bit_errors(bits, coop_bits);

    // Non-cooperative decision: direct observation only (coherent).
    const std::vector<cplx> direct_only =
        combine(cfg.combiner, {branches.front()},
                std::vector<cplx>{gains.front()});
    const BitVec direct_bits = modem.demodulate(direct_only);
    result.errors_direct += count_bit_errors(bits, direct_bits);

    sent += n;
  }

  result.bits = sent;
  result.ber_cooperative =
      static_cast<double>(result.errors_cooperative) / sent;
  result.ber_direct = static_cast<double>(result.errors_direct) / sent;
  for (std::size_t r = 0; r < cfg.relays.size(); ++r) {
    result.relay_ber[r] = static_cast<double>(relay_errors[r]) / sent;
  }
  return result;
}

OverlayBerConfig table2_single_relay_config(std::uint64_t seed) {
  OverlayBerConfig cfg;
  cfg.total_bits = 100000;
  // Calibration: equilateral 2 m triangle with a thick board between Pt
  // and Pr — the obstructed direct link sits near 1 dB mean SNR (≈11%
  // Rician BER), the two unobstructed relay legs near 8.5 dB.
  cfg.direct_snr_db = 1.2;
  cfg.relays = {RelayLinkSnr{8.5, 8.5}};
  cfg.rician_k = 2.0;
  cfg.seed = seed;
  return cfg;
}

OverlayBerConfig table3_multi_relay_config(unsigned num_relays,
                                           std::uint64_t seed) {
  OverlayBerConfig cfg;
  cfg.total_bits = 100000;
  // Calibration: >30 ft, multiple concrete walls — direct link ≈ −4 dB
  // (≈23% BER).  A single mid-corridor relay has mediocre legs; three
  // uniformly spaced relays see progressively different leg qualities
  // (closer to Pt → better first leg, worse second).
  cfg.direct_snr_db = -4.4;
  cfg.rician_k = 2.0;
  cfg.seed = seed;
  cfg.relays.clear();
  if (num_relays <= 1) {
    cfg.relays.push_back(RelayLinkSnr{3.2, 3.2});
  } else {
    for (unsigned r = 0; r < num_relays; ++r) {
      // Linear interpolation of leg quality along the corridor.
      const double frac = (r + 1.0) / (num_relays + 1.0);
      const double pt_leg = 9.5 - 6.5 * frac;   // 9.5 → 3.0 dB
      const double pr_leg = 3.0 + 6.5 * frac;   // 3.0 → 9.5 dB
      cfg.relays.push_back(RelayLinkSnr{pt_leg, pr_leg});
    }
  }
  return cfg;
}

// ---------------------------------------------------------------------
// Underlay PER (Table 4)
// ---------------------------------------------------------------------

UnderlayPerResult run_underlay_per(const UnderlayPerConfig& cfg) {
  COMIMO_CHECK(cfg.num_packets >= 1, "need packets");
  COMIMO_CHECK(cfg.amplitude > 0.0 && cfg.reference_amplitude > 0.0,
               "amplitudes must be positive");
  const GmskModem modem(cfg.gmsk);
  const Framer framer;
  Rng fading_rng(cfg.seed);
  AwgnChannel noise(1.0, Rng(cfg.seed, 0xBEEF));

  const double amp_scale = cfg.amplitude / cfg.reference_amplitude;
  const double mean_power =
      db_to_linear(cfg.snr_at_reference_db) * amp_scale * amp_scale;

  const SyntheticImage image =
      make_test_image(cfg.num_packets, cfg.packet_bytes);
  const std::vector<Packet> packets = packetize(image, cfg.packet_bytes);

  UnderlayPerResult result;
  std::vector<Packet> received;
  UnderlayRx rx;
  for (const auto& pkt : packets) {
    const BitVec tx_bits = framer.frame(pkt);

    // Block fading per packet per transmitter; the cooperative case
    // superposes two faded copies of the same waveform (two co-located
    // USRPs transmitting simultaneously).  Their LOS components share a
    // phase up to a small jitter — the transmitters sit next to each
    // other — while the scattered parts stay independent.
    cplx h = rician_coefficient(fading_rng, cfg.rician_k, mean_power);
    if (cfg.cooperative) {
      const double jitter =
          fading_rng.gaussian(0.0, cfg.coop_phase_jitter_rad);
      const cplx rot{std::cos(jitter), std::sin(jitter)};
      // Align the second LOS with the first: rotate a fresh draw so its
      // LOS phase matches h's dominant phase, then apply the jitter.
      const double k = cfg.rician_k;
      const double los_mag = std::sqrt(mean_power * k / (k + 1.0));
      const double h_phase = std::arg(h);
      const cplx los2{los_mag * std::cos(h_phase),
                      los_mag * std::sin(h_phase)};
      const cplx scatter2 =
          fading_rng.complex_gaussian(mean_power / (k + 1.0));
      h += los2 * rot + scatter2;
    }
    // The differential GMSK detector needs no channel estimate (phase
    // cancels in the one-symbol difference).
    if (auto parsed =
            framer.parse(underlay_receive(modem, tx_bits, h, noise, rx))) {
      received.push_back(std::move(*parsed));
    }
  }

  result.packets_sent = packets.size();
  result.packets_lost = packets.size() - received.size();
  result.per = static_cast<double>(result.packets_lost) /
               static_cast<double>(packets.size());
  result.reassembly = reassemble(image, received, cfg.packet_bytes);
  return result;
}

const BitVec& underlay_receive(const GmskModem& modem,
                               std::span<const std::uint8_t> bits,
                               const cplx& h, AwgnChannel& noise,
                               UnderlayRx& rx) {
  static const obs::Counter decisions_counter =
      obs::MetricRegistry::global().counter("testbed.underlay_decisions");
  static const obs::Counter certified_counter =
      obs::MetricRegistry::global().counter("testbed.underlay_certified");
  const GmskDetectorGrid grid = modem.detector_grid(bits.size());
  const std::vector<GmskPatternDecision>& table = modem.pattern_decisions();

  // Bit k is Im(y[k+1]·conj(y[k])) > 0.  Without noise that is the
  // pattern's bit by a margin of at least |h|²·μ; noise n_k, n_{k+1}
  // moves it by at most |h|(|n_k| + |n_{k+1}|) + |n_k|·|n_{k+1}|.  The
  // margins' slack assumes relative rounding, which a gain that is zero,
  // subnormal or large enough to overflow the products breaks; a
  // pending spare ties a sample's noise to the previous sample's words.
  // Such frames are decided exactly throughout.
  const double hh = h.real() * h.real() + h.imag() * h.imag();
  const bool certify = !table.empty() && !noise.spare_pending() &&
                       hh >= std::numeric_limits<double>::min() &&
                       hh <= 0x1.0p1000;
  const double abs_h = std::sqrt(hh);
  if (certify) {
    rx.small_word.resize(table.size());
    rx.certain.resize(table.size());
    for (std::size_t p = 0; p < table.size(); ++p) {
      // Both |n| ≤ t, with (|h| + t)² = |h|²(1 + μ), keep the noise term
      // within |h|²·μ.
      const double mu = table[p].margin;
      const double t = abs_h * mu / (std::sqrt(1.0 + mu) + 1.0);
      rx.small_word[p] = noise.small_noise_word(t * t);
      rx.certain[p] = hh * mu;
    }
  }
  const auto settled = [&](std::uint32_t p, std::uint64_t a,
                           std::uint64_t b) {
    const std::int64_t small = rx.small_word[p];
    if (static_cast<std::int64_t>(a >> 11) <= small &&
        static_cast<std::int64_t>(b >> 11) <= small) {
      return true;
    }
    const double ra = noise.noise_bound(a);
    const double rb = noise.noise_bound(b);
    return abs_h * (ra + rb) + ra * rb < rx.certain[p];
  };
  const auto signal = [&](double phase) {
    return h * cplx{std::cos(phase), std::sin(phase)};
  };

  rx.bits.resize(bits.size());
  rx.certified = 0;
  GmskGridWalk walk(modem, bits);
  NoiseWords prev_words;
  NoiseWords words;
  double prev_phase = 0.0;
  cplx prev_y;
  cplx y;
  bool prev_known = false;
  for (std::size_t j = 0; walk.next(); ++j) {
    noise.skip(j == 0 ? grid.first : grid.stride - 1);
    bool known = !certify;
    if (certify) {
      words = noise.draw_words();
    } else {
      y = signal(walk.phase()) + noise.sample();
    }
    if (j > 0) {
      const std::uint32_t p =
          certify ? walk.pattern() : GmskGridWalk::kNoPattern;
      if (p != GmskGridWalk::kNoPattern &&
          settled(p, prev_words.w1, words.w1)) {
        rx.bits[j - 1] = table[p].bit;
        ++rx.certified;
      } else {
        if (!prev_known) {
          prev_y = signal(prev_phase) + noise.sample_from(prev_words);
        }
        if (!known) y = signal(walk.phase()) + noise.sample_from(words);
        known = true;
        rx.bits[j - 1] = (y * std::conj(prev_y)).imag() > 0.0
                             ? std::uint8_t{1}
                             : std::uint8_t{0};
      }
    }
    prev_words = words;
    prev_phase = walk.phase();
    prev_y = y;
    prev_known = known;
  }
  noise.skip(grid.total - grid.last() - 1);
  decisions_counter.add(rx.bits.size());
  certified_counter.add(rx.certified);
  return rx.bits;
}

// ---------------------------------------------------------------------
// Interweave coexistence
// ---------------------------------------------------------------------

InterweaveCoexistenceResult run_interweave_coexistence(
    const InterweaveCoexistenceConfig& cfg) {
  COMIMO_CHECK(cfg.total_bits >= 1, "need bits");
  COMIMO_CHECK(cfg.null_residual >= 0.0 && cfg.null_residual <= 2.0,
               "null residual is an amplitude in [0, 2]");
  const BpskModulator modem;
  Rng rng(cfg.seed);
  AwgnChannel noise(1.0, Rng(cfg.seed, 0xCE));

  const double pu_amp = std::sqrt(db_to_linear(cfg.pu_snr_db));
  const double su_amp_at_pr = std::sqrt(db_to_linear(cfg.su_inr_db));
  const double su_amp_at_sr = std::sqrt(db_to_linear(cfg.su_link_snr_db));

  // The un-nulled pair adds two element fields of random relative
  // phase at Pr (amplitude up to 2 per element pair); the nulled pair
  // leaves only the residual.  Toward Sr the nulled pair combines
  // near-coherently (the Table-1 geometry) at ≈1.87× one element.
  const double nulled_gain_at_sr = 1.87;

  InterweaveCoexistenceResult result;
  std::size_t err_base = 0;
  std::size_t err_nulled = 0;
  std::size_t err_unnulled = 0;
  std::size_t err_sr = 0;
  const std::size_t block = 500;
  std::size_t sent = 0;
  while (sent < cfg.total_bits) {
    const std::size_t n = std::min(block, cfg.total_bits - sent);
    const BitVec pu_bits = random_bits(n, cfg.seed ^ (sent + 1));
    const BitVec su_bits = random_bits(n, cfg.seed ^ (0xF00D + sent));
    const auto pu_syms = modem.modulate(pu_bits);
    const auto su_syms = modem.modulate(su_bits);

    // Block-constant phases of the interfering element fields at Pr.
    const double phi1 = rng.uniform(0.0, 2.0 * kPi);
    const double phi2 = rng.uniform(0.0, 2.0 * kPi);
    const cplx e1{std::cos(phi1), std::sin(phi1)};
    const cplx e2{std::cos(phi2), std::sin(phi2)};
    const cplx unnulled_field = (e1 + e2) * su_amp_at_pr;
    const cplx nulled_field = e1 * (su_amp_at_pr * cfg.null_residual);

    for (std::size_t i = 0; i < n; ++i) {
      const cplx w = noise.sample();
      const cplx base = pu_syms[i] * pu_amp + w;
      const cplx with_null = base + nulled_field * su_syms[i];
      const cplx with_raw = base + unnulled_field * su_syms[i];
      const auto decide = [](const cplx& y) {
        return y.real() < 0.0 ? std::uint8_t{1} : std::uint8_t{0};
      };
      err_base += decide(base) != pu_bits[i];
      err_nulled += decide(with_null) != pu_bits[i];
      err_unnulled += decide(with_raw) != pu_bits[i];
      // The secondary link: the pair's combined field toward Sr plus
      // the PU's own interference (weak at Sr: assume symmetric INR).
      const cplx sr_rx = su_syms[i] * (su_amp_at_sr * nulled_gain_at_sr) +
                         pu_syms[i] * (su_amp_at_sr * 0.2) +
                         noise.sample();
      err_sr += decide(sr_rx) != su_bits[i];
    }
    sent += n;
  }
  const auto denom = static_cast<double>(cfg.total_bits);
  result.pr_ber_baseline = static_cast<double>(err_base) / denom;
  result.pr_ber_nulled = static_cast<double>(err_nulled) / denom;
  result.pr_ber_unnulled = static_cast<double>(err_unnulled) / denom;
  result.sr_ber_nulled = static_cast<double>(err_sr) / denom;
  return result;
}

// ---------------------------------------------------------------------
// Fig. 8 beam pattern
// ---------------------------------------------------------------------

double BeamPatternResult::null_residual() const {
  COMIMO_CHECK(!angles_deg.empty(), "empty result");
  // The caller designed the null; report the measured value at the grid
  // point nearest to it — the minimum of measured_coop is equivalent
  // for the paper's geometry.
  double best = measured_coop.front();
  for (const double v : measured_coop) best = std::min(best, v);
  return best;
}

BeamPatternResult run_beam_pattern(const BeamPatternConfig& cfg) {
  COMIMO_CHECK(cfg.step_deg > 0.0, "invalid step");
  COMIMO_CHECK(cfg.radius_m > 0.0, "invalid radius");
  const double d = cfg.element_spacing_wavelengths * cfg.wavelength_m;
  // Array on the x axis, centered at the origin; angles are measured
  // from the array axis (St1 → St2 = +x).
  const PairGeometry geom{Vec2{-d / 2.0, 0.0}, Vec2{d / 2.0, 0.0}};
  // A far "primary receiver" in the null direction fixes δ.
  const double null_rad = deg_to_rad(cfg.null_angle_deg);
  const Vec2 pu = geom.st1 + unit_vec(null_rad) * 1.0e4;
  const NullSteeringPair pair(geom, cfg.wavelength_m, pu);

  const BpskModulator modem;
  const double k = 2.0 * kPi / cfg.wavelength_m;
  const double snr = db_to_linear(cfg.snr_db);
  const double noise_var = 1.0 / snr;  // unit signal power reference

  BeamPatternResult result;
  std::size_t angle_idx = 0;
  for (double a = 0.0; a <= 180.0 + 1e-9; a += cfg.step_deg) {
    result.angles_deg.push_back(a);
    result.ideal.push_back(pair.far_field_amplitude(deg_to_rad(a)));

    Rng rng(cfg.seed, angle_idx++);
    AwgnChannel noise(noise_var, Rng(cfg.seed, 0xF00D + angle_idx));
    const Vec2 rx = unit_vec(deg_to_rad(a)) * cfg.radius_m;

    const BitVec bits = random_bits(cfg.bits_per_point, cfg.seed + angle_idx);
    const std::vector<cplx> s = modem.modulate(bits);

    // Per-element complex gain: imposed delay + exact propagation phase
    // + a scattered multipath component (what keeps the measured null
    // non-zero indoors).
    const auto element_gain = [&](const Vec2& el, double delta) {
      const double phase = delta - k * distance(el, rx);
      const cplx los{std::cos(phase), std::sin(phase)};
      return los + rng.complex_gaussian(cfg.multipath_scatter *
                                        cfg.multipath_scatter);
    };
    const cplx g1 = element_gain(geom.st1, pair.delta());
    const cplx g2 = element_gain(geom.st2, 0.0);

    double sum_coop = 0.0;
    double sum_siso = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      sum_coop += std::abs((g1 + g2) * s[i] + noise.sample());
      sum_siso += std::abs(g2 * s[i] + noise.sample());
    }
    result.measured_coop.push_back(sum_coop / static_cast<double>(s.size()));
    result.measured_siso.push_back(sum_siso / static_cast<double>(s.size()));
  }

  // Normalize both measured curves by the mean SISO level (the paper's
  // "normalized received signal amplitude").
  double siso_mean = 0.0;
  for (const double v : result.measured_siso) siso_mean += v;
  siso_mean /= static_cast<double>(result.measured_siso.size());
  if (siso_mean > 0.0) {
    for (auto& v : result.measured_coop) v /= siso_mean;
    for (auto& v : result.measured_siso) v /= siso_mean;
  }
  return result;
}

}  // namespace comimo
