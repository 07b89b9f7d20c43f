// Golden-value regression net over the paper-table reproductions.
//
// Two layers of pinning for every anchor:
//   1. *paper consistency* — the reproduced number sits in the range the
//      paper reports (loose, survives re-tuning);
//   2. *golden regression* — the exact value this revision computes,
//      pinned tightly so any accidental change to the RNG streams,
//      channel models or estimators shows up as a test failure, not as
//      a silently drifted table.
// The golden constants were harvested from the bench binaries' --json
// output; re-harvest them deliberately when a model change is intended
// (run the bench, copy the new value, say so in the commit message).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/common/units.h"
#include "comimo/energy/ebbar.h"
#include "comimo/interweave/pair_beamformer.h"
#include "comimo/interweave/pu_selection.h"
#include "comimo/mc/engine.h"
#include "comimo/numeric/rng.h"
#include "comimo/overlay/distance_planner.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/testbed/experiments.h"
#include "comimo/testbed/framing.h"
#include "comimo/testbed/image.h"

namespace comimo {
namespace {

constexpr double kTightRel = 1e-9;  // regression tolerance (relative)

void expect_rel(double value, double golden, const char* what) {
  EXPECT_NEAR(value, golden, std::abs(golden) * kTightRel) << what;
}

// --- Table 1: interweave pair amplitude ------------------------------

// The bench's trial body (bench/table1_interweave_amplitude.cpp), which
// is itself the paper's §6.3 setup: St1/St2 15 m apart, 20 candidate
// PUs in a 300 m circle, Algorithm-3 pick, amplitude at Sr.
double table1_trial_amplitude(std::size_t t) {
  const PairGeometry geom{Vec2{0.0, 7.5}, Vec2{0.0, -7.5}};
  const double sr_angle = deg_to_rad(76.6);
  const Vec2 axis = (geom.st2 - geom.st1).normalized();
  const Vec2 perp{-axis.y, axis.x};
  const Vec2 sr = geom.center() +
                  (axis * std::cos(sr_angle) + perp * std::sin(sr_angle)) *
                      150.0;
  Rng rng(2013, t + 1);
  std::vector<Vec2> candidates;
  for (int i = 0; i < 20; ++i) {
    candidates.push_back(rng.point_in_disk(geom.st1, 150.0));
  }
  const PuSelectionWeights weights{0.25, 2.0};
  const std::size_t pick = select_pu(geom.center(), sr, candidates, weights);
  const NullSteeringPair pair(geom, 30.0, candidates[pick]);
  return pair.amplitude_at(sr);
}

TEST(GoldenTables, Table1InterweaveAmplitude) {
  McConfig mc;
  mc.seed = 2013;
  const McResult run = run_trials(
      10, mc, [](std::size_t t, Rng&, McAccumulator& acc) {
        acc.observe("amplitude", table1_trial_amplitude(t));
      });
  const RunningStats& amp = run.acc.stat("amplitude");
  // Paper: mean 1.87, reported trial range 1.87–1.89 (vs SISO 1.0).
  EXPECT_GE(amp.mean(), 1.87);
  EXPECT_LE(amp.mean(), 1.89);
  EXPECT_GT(amp.min(), 1.5) << "a trial collapsed toward the SISO level";
  // Golden regression (harvested from table1_interweave_amplitude --json).
  expect_rel(amp.mean(), 1.8760951342243513, "mean amplitude");
  expect_rel(amp.min(), 1.7885141957097594, "min amplitude");
  expect_rel(amp.max(), 1.9444628343652204, "max amplitude");
}

// --- Table 2: single-relay overlay BER -------------------------------

TEST(GoldenTables, Table2SingleRelayOverlay) {
  // Paper averages over 3 experiments: 2.46% coop / 10.87% direct.
  const double golden_coop[] = {0.01662, 0.01878, 0.02093};
  const double golden_direct[] = {0.0923, 0.09887, 0.10989};
  double coop_sum = 0.0;
  double direct_sum = 0.0;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const OverlayBerResult r =
        run_overlay_ber(table2_single_relay_config(k));
    expect_rel(r.ber_cooperative, golden_coop[k - 1], "coop BER");
    expect_rel(r.ber_direct, golden_direct[k - 1], "direct BER");
    EXPECT_LT(r.ber_cooperative, r.ber_direct)
        << "cooperation must beat the obstructed direct path";
    coop_sum += r.ber_cooperative;
    direct_sum += r.ber_direct;
  }
  const double coop_avg = coop_sum / 3.0;
  const double direct_avg = direct_sum / 3.0;
  // Paper consistency: single-digit coop %, ~10% direct, gap ≥ 3×.
  EXPECT_LT(coop_avg, 0.05);
  EXPECT_NEAR(direct_avg, 0.1087, 0.03);
  EXPECT_GT(direct_avg / coop_avg, 3.0);
}

// --- Table 3: multi-relay overlay BER --------------------------------

TEST(GoldenTables, Table3MultiRelayOverlay) {
  // Paper: 2.93% (multi) / 10.57% (single) / 22.74% (none); the load-
  // bearing claim is the strict ordering multi < single < none.
  double multi_sum = 0.0;
  double single_sum = 0.0;
  double none_sum = 0.0;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const OverlayBerResult multi =
        run_overlay_ber(table3_multi_relay_config(3, k));
    const OverlayBerResult single =
        run_overlay_ber(table3_multi_relay_config(1, k));
    multi_sum += multi.ber_cooperative;
    single_sum += single.ber_cooperative;
    none_sum += single.ber_direct;  // shared no-cooperation baseline
  }
  const double multi_avg = multi_sum / 3.0;
  const double single_avg = single_sum / 3.0;
  const double none_avg = none_sum / 3.0;
  EXPECT_LT(multi_avg, single_avg);
  EXPECT_LT(single_avg, none_avg);
  EXPECT_NEAR(none_avg, 0.2274, 0.05);
  // Golden regression (harvested from table3_overlay_multi_relay --json).
  expect_rel(multi_avg, 0.013916666666666666, "multi-relay avg BER");
  expect_rel(single_avg, 0.09198, "single-relay avg BER");
  expect_rel(none_avg, 0.22857, "no-cooperation avg BER");
}

// --- Table 4: underlay image-transfer PER ----------------------------

// bench/table4_underlay_per's cell: seed 7, 474 packets.
UnderlayPerResult table4_cell(double amplitude, bool cooperative) {
  UnderlayPerConfig cfg;
  cfg.amplitude = amplitude;
  cfg.seed = 7;
  cfg.cooperative = cooperative;
  return run_underlay_per(cfg);
}

TEST(GoldenTables, Table4UnderlayPerAtFullAmplitude) {
  // Paper @ amplitude 800: coop PER 0%, solo 24.85%.
  const UnderlayPerResult coop = table4_cell(800.0, true);
  const UnderlayPerResult solo = table4_cell(800.0, false);
  EXPECT_DOUBLE_EQ(coop.per, 0.0) << "paper: error-free at amplitude 800";
  EXPECT_NEAR(solo.per, 0.2485, 0.05);
  EXPECT_TRUE(coop.reassembly.recoverable());
  // Golden regression (harvested from table4_underlay_per --json).
  expect_rel(solo.per, 0.2489451476793249, "solo PER @ 800");
  EXPECT_EQ(coop.packets_sent, 474u);
  EXPECT_EQ(coop.packets_lost, 0u);
  EXPECT_EQ(solo.packets_lost, 118u);
}

TEST(GoldenTables, Table4UnderlayPerAtReducedAmplitudes) {
  // Paper @ 600: coop 6.12%, solo 70.28%; @ 400: coop 13.72%, solo
  // 97.1%.  Cooperation must beat the solo link at both.
  const UnderlayPerResult coop600 = table4_cell(600.0, true);
  const UnderlayPerResult solo600 = table4_cell(600.0, false);
  const UnderlayPerResult coop400 = table4_cell(400.0, true);
  const UnderlayPerResult solo400 = table4_cell(400.0, false);
  EXPECT_LT(coop600.per, solo600.per);
  EXPECT_LT(coop400.per, solo400.per);
  EXPECT_NEAR(solo600.per, 0.7028, 0.05);
  EXPECT_NEAR(solo400.per, 0.971, 0.05);
  // Golden regression: packets lost out of 474 at seed 7.
  EXPECT_EQ(coop600.packets_lost, 4u);
  EXPECT_EQ(solo600.packets_lost, 312u);
  EXPECT_EQ(coop400.packets_lost, 116u);
  EXPECT_EQ(solo400.packets_lost, 465u);
}

// PER cannot see a flipped bit inside a frame that is already lost (465
// of the 474 frames at 400 solo are), so the received bits themselves
// are pinned: one FNV-1a digest over every decision of the six cells,
// frames in order, cells in the bench's order.  The frame loop repeats
// run_underlay_per's (the same fading and noise streams, the same gain
// draws), and its PERs must equal run_underlay_per's.
TEST(GoldenTables, Table4ReceivedBitsDigest) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const double amplitude : {800.0, 600.0, 400.0}) {
    for (const bool cooperative : {true, false}) {
      UnderlayPerConfig cfg;
      cfg.amplitude = amplitude;
      cfg.seed = 7;
      cfg.cooperative = cooperative;
      const GmskModem modem(cfg.gmsk);
      const Framer framer;
      Rng fading_rng(cfg.seed);
      AwgnChannel noise(1.0, Rng(cfg.seed, 0xBEEF));
      const double amp_scale = cfg.amplitude / cfg.reference_amplitude;
      const double mean_power =
          db_to_linear(cfg.snr_at_reference_db) * amp_scale * amp_scale;
      const double k = cfg.rician_k;
      const std::vector<Packet> packets = packetize(
          make_test_image(cfg.num_packets, cfg.packet_bytes),
          cfg.packet_bytes);
      UnderlayRx rx;
      std::size_t lost = 0;
      for (const Packet& pkt : packets) {
        const BitVec tx_bits = framer.frame(pkt);
        cplx h = rician_coefficient(fading_rng, k, mean_power);
        if (cooperative) {
          const double jitter =
              fading_rng.gaussian(0.0, cfg.coop_phase_jitter_rad);
          const double los_mag = std::sqrt(mean_power * k / (k + 1.0));
          const double h_phase = std::arg(h);
          const cplx los2{los_mag * std::cos(h_phase),
                          los_mag * std::sin(h_phase)};
          const cplx scatter2 =
              fading_rng.complex_gaussian(mean_power / (k + 1.0));
          h += los2 * cplx{std::cos(jitter), std::sin(jitter)} + scatter2;
        }
        const BitVec& rx_bits = underlay_receive(modem, tx_bits, h, noise, rx);
        for (const std::uint8_t b : rx_bits) {
          digest = (digest ^ b) * 0x100000001b3ULL;
        }
        if (!framer.parse(rx_bits)) ++lost;
      }
      const UnderlayPerResult run = run_underlay_per(cfg);
      EXPECT_EQ(run.packets_lost, lost)
          << "amplitude " << amplitude << (cooperative ? " coop" : " solo");
      EXPECT_EQ(run.per, static_cast<double>(lost) /
                             static_cast<double>(packets.size()));
    }
  }
  // Golden regression, harvested from the exact detector-grid chain
  // (tests/underlay_grid_oracle.h) before the certified receiver.
  EXPECT_EQ(digest, 0x86b1a4b3cb5e63efULL);
}

// --- ē_b anchors (§6.2) ----------------------------------------------

TEST(GoldenTables, EbBarPaperAnchors) {
  const EbBarSolver solver;
  const double siso = solver.solve(1e-3, 2, 1, 1);
  const double mimo = solver.solve(1e-3, 2, 2, 3);
  // Paper: ē_b = 1.90e−18 for (1,1), ≈ 3.20e−20 for (2,3) at p = 1e−3,
  // b = 2.  Our quadrature lands within ~5% of the SISO anchor and the
  // same order of magnitude for the MIMO one (see tests/test_ebbar.cpp).
  EXPECT_NEAR(siso, 1.90e-18, 0.10e-18);
  EXPECT_GT(mimo, 1.0e-20);
  EXPECT_LT(mimo, 1.0e-19);
  EXPECT_GT(siso / mimo, 50.0) << "the 3-orders-of-magnitude headline";
  // Golden regression.
  expect_rel(siso, 1.9798651128586195e-18, "ebar(1e-3, 2, 1, 1)");
  expect_rel(mimo, 2.0443384293985833e-20, "ebar(1e-3, 2, 2, 3)");
}

// --- Fig. 6 anchor: overlay relay distances --------------------------

TEST(GoldenTables, Fig6OverlayDistanceAnchor) {
  // Paper anchor at D1 = 250 m, m = 3, B = 40 kHz, with D3 = √m·D2.
  const OverlayDistancePlanner planner(SystemParams{},
                                       EbBarConvention::kTotalEnergy);
  OverlayDistanceQuery q;
  q.d1_m = 250.0;
  q.num_relays = 3;
  q.bandwidth_hz = 40e3;
  const auto r = planner.plan(q);
  EXPECT_GT(r.d2_m, q.d1_m) << "relays must out-reach the direct link";
  EXPECT_GT(r.d3_m, r.d2_m) << "paper: D3 > D2";
  // D3/D2 tracks √m = √3 ≈ 1.73 (the bandwidth term erodes it a bit).
  EXPECT_GT(r.d3_m / r.d2_m, 1.4);
  EXPECT_LT(r.d3_m / r.d2_m, std::sqrt(3.0) + 0.01);
  // Golden regression (harvested from fig6_overlay_distance --json).
  expect_rel(r.d2_m, 721.2142548653477, "D2 @ anchor");
  expect_rel(r.d3_m, 1162.4544967926063, "D3 @ anchor");
  // D2 is bandwidth-independent under the total-energy convention;
  // D3 grows with B (the paper's §6 sweep from 10k to 100k).
  q.bandwidth_hz = 10e3;
  const auto r_lo = planner.plan(q);
  expect_rel(r_lo.d2_m, 721.2142548653477, "D2 @ 10 kHz");
  expect_rel(r_lo.d3_m, 983.1119848200003, "D3 @ 10 kHz");
  EXPECT_LT(r_lo.d3_m, r.d3_m);
}

// --- measure_waveform_ber across versions ---------------------------

// Every other BER check compares the MC driver with itself (threads,
// shards, SIMD tiers, checkpoint schedules), so none would notice a
// change that moved every result alike.  These pins hold four points,
// one per driver path — fixed, fixed over two shards, adaptive,
// and adaptive importance sampling with a fade tilt — to values
// recorded from a build with separate fixed, sharded and adaptive
// drivers.  Doubles are pinned as IEEE-754 bit patterns.  The scalar,
// SSE2, AVX2 and AVX-512 tiers all gave these bits; the COMIMO_SIMD=OFF
// leg of scripts/ci.sh re-checks the scalar one.
struct WaveformPin {
  std::size_t bits;
  std::size_t bit_errors;
  std::size_t trials_executed;
  std::size_t checkpoints;
  bool target_met;
  std::uint64_t ber;
  std::uint64_t rel_ci;
  std::uint64_t ess;
  std::size_t err_blocks;
};

void expect_pin(const WaveformBerConfig& cfg, double gamma_b_db,
                const WaveformPin& pin) {
  const WaveformBerPoint p = measure_waveform_ber(cfg, gamma_b_db);
  EXPECT_EQ(p.bits, pin.bits);
  EXPECT_EQ(p.bit_errors, pin.bit_errors);
  EXPECT_EQ(p.trials_budget, cfg.blocks);
  EXPECT_EQ(p.trials_executed, pin.trials_executed);
  EXPECT_EQ(p.checkpoints, pin.checkpoints);
  EXPECT_EQ(p.target_met, pin.target_met);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.ber), pin.ber) << p.ber;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.rel_ci), pin.rel_ci) << p.rel_ci;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.ess), pin.ess) << p.ess;
  EXPECT_EQ(p.err_blocks, pin.err_blocks);
}

TEST(GoldenTables, WaveformBerFixedPoint) {
  // 98-block chunks: at widths 4 and 8 each ends in a narrower group.
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 100000;
  cfg.seed = 181;
  expect_pin(cfg, 6.0,
             {400000, 763, 100000, 0, false, 0x3f5f40a2877ee4e2ULL,
              0x3fb225b32a4e5058ULL, 0, 0});
}

TEST(GoldenTables, WaveformBerFixedShardedPoint) {
  WaveformBerConfig cfg;
  cfg.b = 1;
  cfg.mt = 1;
  cfg.mr = 1;
  cfg.blocks = 100000;
  cfg.seed = 182;
  cfg.shards = 2;
  expect_pin(cfg, 10.0,
             {100000, 2304, 100000, 0, false, 0x3f9797cc39ffd60fULL,
              0x3fa4a9fe703af4f7ULL, 0, 0});
}

TEST(GoldenTables, WaveformBerAdaptivePoint) {
  // Stops at the fourth checkpoint of a 400 000-block budget.
  WaveformBerConfig cfg;
  cfg.b = 4;
  cfg.mt = 4;
  cfg.mr = 2;
  cfg.blocks = 400000;
  cfg.seed = 183;
  cfg.adaptive.target_rel_ci = 0.05;
  expect_pin(cfg, 8.0,
             {800768, 1753, 50048, 4, true, 0x3f61eefa1b7fac32ULL,
              0x3fa7f10598e7714fULL, 0, 0});
}

TEST(GoldenTables, WaveformBerAdaptiveFadeTiltedIsPoint) {
  WaveformBerConfig cfg;
  cfg.b = 1;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 400000;
  cfg.seed = 184;
  cfg.adaptive.target_rel_ci = 0.1;
  cfg.adaptive.is_mode = IsMode::kScaledNoise;
  cfg.adaptive.is_noise_scale = 1.0;
  cfg.adaptive.is_channel_scale = 3.0;
  expect_pin(cfg, 12.0,
             {525504, 485, 262752, 21, true, 0x3ef83e89bdc7e537ULL,
              0x3fb9539acacb99e3ULL, 0x40786555b00eddb7ULL, 474});
}

}  // namespace
}  // namespace comimo
