// Tests for the zero-allocation batched link kernel: the *_into APIs
// must be bitwise identical to the allocating ones, a reused workspace
// must never read stale state across varying shapes, and the refactored
// sweep call sites must stay bit-identical across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comimo/channel/fading.h"
#include "comimo/common/parallel.h"
#include "comimo/net/comimonet.h"
#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"
#include "comimo/overlay/relay_scheme.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/link_workspace.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/resilience/resilient_sim.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {
namespace {

// ------------------------------------------------ _into ≡ allocating --

TEST(LinkWorkspace, EncodeIntoMatchesEncodeBitwise) {
  for (std::size_t mt = 1; mt <= kMaxStbcTx; ++mt) {
    const StbcCode code = StbcCode::for_antennas(mt);
    Rng rng(3, mt);
    std::vector<cplx> s(code.symbols_per_block());
    for (auto& v : s) v = rng.complex_gaussian();
    const CMatrix expect = code.encode(s);
    CMatrix got(code.block_length(), code.num_tx());
    code.encode_into(s, got);
    EXPECT_EQ(got.max_abs_diff(expect), 0.0) << "mt=" << mt;
  }
}

TEST(LinkWorkspace, DecodeIntoMatchesDecodeBitwise) {
  // One scratch serves every shape in sequence — leftovers from a large
  // decode must not leak into a smaller one.
  StbcDecodeScratch scratch;
  for (const std::size_t mt : {4u, 1u, 3u, 2u}) {
    const StbcCode code = StbcCode::for_antennas(mt);
    const StbcDecoder decoder(code);
    Rng rng(17, mt);
    std::vector<cplx> s(code.symbols_per_block());
    for (auto& v : s) v = rng.complex_gaussian();
    const CMatrix h = CMatrix::random_gaussian(2, mt, rng);
    CMatrix received = code.encode(s);
    // Propagate: received · hᵀ plus noise.
    CMatrix at_rx(code.block_length(), 2);
    multiply_transposed_into(received, h, at_rx);
    add_scaled_noise_into(at_rx, rng, 0.1);

    const std::vector<cplx> expect = decoder.decode(h, at_rx);
    std::vector<cplx> got(code.symbols_per_block());
    decoder.decode_into(h, at_rx, got, scratch);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], expect[k]) << "mt=" << mt << " k=" << k;
    }
  }
}

TEST(LinkWorkspace, ModulateIntoMatchesModulateBitwise) {
  for (const int b : {1, 2, 4, 6}) {
    const auto modem = make_modulator(b);
    const BitVec bits = random_bits(24 * static_cast<std::size_t>(b), 5);
    const std::vector<cplx> expect = modem->modulate(bits);
    std::vector<cplx> got;
    modem->modulate_into(bits, got);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << "b=" << b;
    }
    const BitVec expect_bits = modem->demodulate(expect);
    BitVec got_bits;
    modem->demodulate_into(got, got_bits);
    EXPECT_EQ(got_bits, expect_bits);
  }
}

TEST(LinkWorkspace, FadingNextBlockIntoMatchesNextBlock) {
  RayleighBlockFading a(3, 2, Rng(9, 1));
  RayleighBlockFading b(3, 2, Rng(9, 1));
  for (int i = 0; i < 4; ++i) {
    const CMatrix expect = a.next_block();
    CMatrix got(2, 3);
    b.next_block_into(got);
    EXPECT_EQ(got.max_abs_diff(expect), 0.0);
  }
}

// The reference implementation of one simulated block, all-allocating,
// mirroring the historical ber_sweep trial body.
std::vector<cplx> allocating_reference_block(const StbcDecoder& decoder,
                                             std::size_t mr,
                                             std::span<const cplx> symbols,
                                             Rng& rng) {
  const StbcCode& code = decoder.code();
  const CMatrix h =
      CMatrix::random_gaussian(mr, code.num_tx(), rng);
  const CMatrix c = code.encode(symbols);
  CMatrix received(code.block_length(), mr);
  for (std::size_t t = 0; t < code.block_length(); ++t) {
    for (std::size_t j = 0; j < mr; ++j) {
      cplx v{0.0, 0.0};
      for (std::size_t i = 0; i < code.num_tx(); ++i) {
        v += c(t, i) * h(j, i);
      }
      received(t, j) = v + rng.complex_gaussian(1.0);
    }
  }
  return decoder.decode(h, received);
}

TEST(LinkWorkspace, SimulateBlockMatchesAllocatingPathBitwise) {
  const StbcCode code = StbcCode::alamouti();
  const StbcDecoder decoder(code);
  LinkWorkspace ws;
  ws.configure(code, 2);
  Rng sym_rng(21);
  for (auto& v : ws.symbols) v = sym_rng.complex_gaussian();

  Rng rng_a(33, 4);
  Rng rng_b(33, 4);
  const std::vector<cplx> expect =
      allocating_reference_block(decoder, 2, ws.symbols, rng_a);
  simulate_block_tilted(decoder, ws, rng_b, 1.0, 1.0);
  ASSERT_EQ(ws.estimates.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(ws.estimates[k], expect[k]);
  }
}

// ------------------------------------------------- no stale state ----

TEST(LinkWorkspace, ReuseAcross1000VaryingShapesHasNoStaleState) {
  LinkWorkspace ws;  // one workspace for every block
  Rng shape_rng(0xDEAD);
  for (std::size_t blk = 0; blk < 1000; ++blk) {
    const std::size_t mt = 1 + shape_rng.uniform_int(kMaxStbcTx);
    const std::size_t mr = 1 + shape_rng.uniform_int(4);
    const StbcCode code = StbcCode::for_antennas(mt);
    const StbcDecoder decoder(code);

    ws.configure(code, mr);
    Rng sym_rng(0x51, blk);
    for (auto& v : ws.symbols) v = sym_rng.complex_gaussian();

    Rng rng_ref(0xF00D, blk);
    Rng rng_ws(0xF00D, blk);
    const std::vector<cplx> expect =
        allocating_reference_block(decoder, mr, ws.symbols, rng_ref);
    simulate_block_tilted(decoder, ws, rng_ws, 1.0, 1.0);
    ASSERT_EQ(ws.estimates.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k) {
      ASSERT_EQ(ws.estimates[k], expect[k])
          << "blk=" << blk << " mt=" << mt << " mr=" << mr;
    }
  }
}

// --------------------------------------- thread-count invariance -----

TEST(LinkWorkspace, BerSweepBitIdenticalAcrossThreadCounts) {
  WaveformBerConfig cfg;
  cfg.b = 2;
  cfg.mt = 2;
  cfg.mr = 2;
  cfg.blocks = 600;
  cfg.seed = 77;
  cfg.chunk_size = 50;

  ThreadPool one(1);
  ThreadPool many(3);
  cfg.pool = &one;
  const WaveformBerPoint p1 = measure_waveform_ber(cfg, 5.0);
  cfg.pool = &many;
  const WaveformBerPoint pn = measure_waveform_ber(cfg, 5.0);
  EXPECT_EQ(p1.bit_errors, pn.bit_errors);
  EXPECT_EQ(p1.bits, pn.bits);
  EXPECT_EQ(p1.ber, pn.ber);  // bit-identical, not just close
}

TEST(LinkWorkspace, CoopHopBitIdenticalAcrossThreadCounts) {
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig hop_cfg;
  hop_cfg.mt = 3;
  hop_cfg.mr = 2;
  hop_cfg.ber = 1e-2;

  CoopHopSimConfig sim;
  sim.plan = planner.plan(hop_cfg, BSelectionRule::kMinTotalPa);
  sim.bits = 4000;
  sim.seed = 5;
  sim.faults.enabled = true;
  sim.faults.block_erasure_prob = 0.2;
  sim.faults.dropout_block = 3;

  ThreadPool one(1);
  ThreadPool many(3);
  sim.pool = &one;
  const CoopHopSimResult r1 = simulate_cooperative_hop(sim);
  sim.pool = &many;
  const CoopHopSimResult rn = simulate_cooperative_hop(sim);
  EXPECT_EQ(r1.bit_errors, rn.bit_errors);
  EXPECT_EQ(r1.ber, rn.ber);
  EXPECT_EQ(r1.intra_error_rate, rn.intra_error_rate);
  EXPECT_EQ(r1.resilience.retransmitted_blocks,
            rn.resilience.retransmitted_blocks);
  EXPECT_EQ(r1.resilience.lost_blocks, rn.resilience.lost_blocks);
}

// ------------------------------------------- new call-site bridges ---

TEST(LinkWorkspace, MeasurePlanBerMatchesEquivalentWaveformPoint) {
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig hop_cfg;
  hop_cfg.mt = 2;
  hop_cfg.mr = 2;
  hop_cfg.ber = 1e-2;
  const UnderlayHopPlan plan = planner.plan(hop_cfg);

  const PlanBerMeasurement m = measure_plan_ber(plan, 400, 9);

  WaveformBerConfig cfg;
  cfg.b = plan.b;
  cfg.mt = plan.config.mt;
  cfg.mr = plan.config.mr;
  cfg.blocks = 400;
  cfg.seed = 9;
  const WaveformBerPoint p = measure_waveform_ber(cfg, m.gamma_b_db);
  EXPECT_EQ(m.bit_errors, p.bit_errors);
  EXPECT_EQ(m.bits, p.bits);
  EXPECT_EQ(m.ber, p.ber);
  EXPECT_GT(m.bits, 0u);
}

TEST(LinkWorkspace, OverlayRelayWaveformMeasuresBothLegs) {
  const OverlayRelayScheme scheme;
  OverlayRelayConfig cfg;
  cfg.num_relays = 2;
  cfg.ber = 1e-2;
  const OverlayRelayEnergies energies = scheme.plan(cfg);
  const OverlayRelayWaveform wf =
      scheme.measure_relay_waveform(cfg, energies, 300, 3);
  EXPECT_GT(wf.simo.bits, 0u);
  EXPECT_GT(wf.miso.bits, 0u);
  // The solver aims each leg at the configured target BER; with only
  // 300 blocks we just bound the measured rates loosely.
  EXPECT_LT(wf.simo.ber, 0.2);
  EXPECT_LT(wf.miso.ber, 0.2);
  // Deterministic replay.
  const OverlayRelayWaveform again =
      scheme.measure_relay_waveform(cfg, energies, 300, 3);
  EXPECT_EQ(wf.simo.bit_errors, again.simo.bit_errors);
  EXPECT_EQ(wf.miso.bit_errors, again.miso.bit_errors);
}

CoMimoNet make_field(std::uint64_t seed = 11) {
  const auto nodes = clustered_field(14, 3, 6.0, 450.0, 450.0, seed,
                                     /*battery_lo=*/150.0,
                                     /*battery_hi=*/200.0);
  CoMimoNetConfig cfg;
  cfg.communication_range_m = 40.0;
  cfg.cluster_diameter_m = 16.0;
  cfg.link_range_m = 280.0;
  return CoMimoNet(nodes, cfg);
}

TEST(LinkWorkspace, ResilienceWaveformProbeIsPurelyObservational) {
  const CoMimoNet net = make_field();
  const SystemParams params;
  ResilienceConfig cfg;
  cfg.rounds = 6;
  cfg.ber = 1e-2;
  cfg.traffic_seed = 3;

  const ResilienceReport off = simulate_with_faults(net, params, cfg);
  cfg.waveform_blocks = 200;
  const ResilienceReport on = simulate_with_faults(net, params, cfg);

  // Every legacy field must be bit-identical whether the probe ran.
  EXPECT_EQ(off.packets_offered, on.packets_offered);
  EXPECT_EQ(off.packets_delivered, on.packets_delivered);
  EXPECT_EQ(off.delivered_bits, on.delivered_bits);
  EXPECT_EQ(off.energy_spent_j, on.energy_spent_j);
  EXPECT_EQ(off.total_time_s, on.total_time_s);
  EXPECT_EQ(off.goodput_bps, on.goodput_bps);
  EXPECT_EQ(off.retransmissions, on.retransmissions);

  // The probe itself reported something when packets routed.
  EXPECT_EQ(off.waveform_hops, 0u);
  EXPECT_EQ(off.waveform_bits, 0u);
  if (on.packets_delivered > 0) {
    EXPECT_GT(on.waveform_hops, 0u);
    EXPECT_GT(on.waveform_bits, 0u);
    EXPECT_GE(on.waveform_hop_ber, 0.0);
    EXPECT_LE(on.waveform_hop_ber, 1.0);
  }

  // And the probed run replays bit-identically.
  const ResilienceReport replay = simulate_with_faults(net, params, cfg);
  EXPECT_EQ(on, replay);
}

}  // namespace
}  // namespace comimo
