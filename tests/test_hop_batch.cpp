// The hop-batch contract: CoopHopBlockKernel's group driver must
// reproduce the lane-serial oracle (hop_oracle.h) bit for bit — per
// lane, per tier, for full STBC designs and every ladder-degraded shape
// — and a group of any count must equal running each block alone.
// Tiers the host cannot run (e.g. AVX-512 without avx512f) simply do
// not appear in kernels_for_tier and are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "comimo/common/parallel.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"
#include "hop_oracle.h"

namespace comimo {
namespace {

using simd::BatchKernels;
using simd::Tier;

// Every kernel table the host can run, scalar included — the batch
// driver must hold its contract at width 1 too.
std::vector<const BatchKernels*> runnable_tiers() {
  std::vector<const BatchKernels*> out;
  for (const Tier t : {Tier::kScalar, Tier::kSse2, Tier::kAvx2,
                       Tier::kAvx512, Tier::kNeon}) {
    if (const BatchKernels* k = simd::kernels_for_tier(t)) out.push_back(k);
  }
  return out;
}

UnderlayHopPlan make_plan(unsigned mt, unsigned mr) {
  const UnderlayCooperativeHop planner;
  UnderlayHopConfig cfg;
  cfg.mt = mt;
  cfg.mr = mr;
  cfg.hop_distance_m = 200.0;
  cfg.ber = 1e-2;
  return planner.plan(cfg, BSelectionRule::kMinTotalPa);
}

void expect_lanes_equal(HopBatchWorkspace& got, HopBatchWorkspace& want,
                        std::size_t count, std::size_t bpb,
                        const char* what) {
  for (std::size_t w = 0; w < count; ++w) {
    const std::uint8_t* g = got.decoded_lane(w);
    const std::uint8_t* r = want.decoded_lane(w);
    for (std::size_t i = 0; i < bpb; ++i) {
      ASSERT_EQ(g[i], r[i]) << what << " lane " << w << " bit " << i;
    }
  }
}

TEST(HopBatch, GroupBatchMatchesGroupSerialAtEveryTier) {
  struct Shape {
    unsigned mt;
    unsigned mr;
  };
  for (const Shape shape :
       {Shape{2, 2}, Shape{3, 2}, Shape{4, 2}, Shape{4, 4}}) {
    const UnderlayHopPlan plan = make_plan(shape.mt, shape.mr);
    const CoopHopBlockKernel kernel(plan, 30.0);
    oracle::HopOracle serial(plan, 30.0);
    const std::size_t bpb = kernel.bits_per_block();
    for (const BatchKernels* k : runnable_tiers()) {
      const std::size_t width = k->width;
      for (const std::size_t blk0 : {std::size_t{0}, std::size_t{13}}) {
        const BitVec payload = random_bits((blk0 + width) * bpb, 0xB17);
        HopBatchWorkspace ws_serial, ws_batch;
        kernel.prepare_batch(ws_serial, width);
        kernel.prepare_batch(ws_batch, width);
        CoopHopBlockKernel::GroupStats
            stats_serial[CoopHopBlockKernel::kMaxLanes]{};
        CoopHopBlockKernel::GroupStats
            stats_batch[CoopHopBlockKernel::kMaxLanes]{};
        serial.run_group_serial(ws_serial, payload.data(), blk0, width, 17,
                                kernel.decoder_full(), stats_serial);
        kernel.run_group_batch(ws_batch, payload.data(), blk0, width, 17,
                               kernel.decoder_full(), stats_batch, k);
        expect_lanes_equal(ws_batch, ws_serial, width, bpb,
                           simd::tier_name(k->tier));
        for (std::size_t w = 0; w < width; ++w) {
          EXPECT_EQ(stats_batch[w].intra_errors, stats_serial[w].intra_errors)
              << simd::tier_name(k->tier) << " lane " << w;
          EXPECT_EQ(stats_batch[w].intra_bits, stats_serial[w].intra_bits)
              << simd::tier_name(k->tier) << " lane " << w;
        }
      }
    }
  }
}

TEST(HopBatch, GroupSerialEqualsRunningEachBlockAlone) {
  // The ragged-tail path: a group of any count — one pinned-width pass
  // when it fills the pinned width, else one width-1 pass per lane —
  // must be exactly the concatenation of single-block runs (streams are
  // (seed, block index), never (seed, lane)), and each block must equal
  // the lane-serial oracle's.
  const UnderlayHopPlan plan = make_plan(2, 2);
  const CoopHopBlockKernel kernel(plan, 30.0);
  oracle::HopOracle serial(plan, 30.0);
  const std::size_t bpb = kernel.bits_per_block();
  const std::size_t max_count =
      std::max<std::size_t>(5, simd::batch_width());
  const std::size_t blk0 = 7;
  const BitVec payload = random_bits((blk0 + max_count) * bpb, 0xFEED);
  for (std::size_t count = 1; count <= max_count; ++count) {
    HopBatchWorkspace ws_group, ws_one, ws_oracle;
    kernel.prepare_batch(ws_group, count);
    kernel.prepare_batch(ws_one, 1);
    kernel.prepare_batch(ws_oracle, 1);
    CoopHopBlockKernel::GroupStats
        group_stats[CoopHopBlockKernel::kMaxLanes]{};
    kernel.run_group_batch(ws_group, payload.data(), blk0, count, 29,
                           kernel.decoder_full(), group_stats);
    for (std::size_t w = 0; w < count; ++w) {
      CoopHopBlockKernel::GroupStats one_stats[1]{};
      CoopHopBlockKernel::GroupStats oracle_stats[1]{};
      kernel.run_group_batch(ws_one, payload.data(), blk0 + w, 1, 29,
                             kernel.decoder_full(), one_stats);
      serial.run_group_serial(ws_oracle, payload.data(), blk0 + w, 1, 29,
                              kernel.decoder_full(), oracle_stats);
      const std::uint8_t* got = ws_group.decoded_lane(w);
      const std::uint8_t* one = ws_one.decoded_lane(0);
      const std::uint8_t* want = ws_oracle.decoded_lane(0);
      for (std::size_t i = 0; i < bpb; ++i) {
        ASSERT_EQ(got[i], one[i])
            << "count=" << count << " lane=" << w << " bit=" << i;
        ASSERT_EQ(got[i], want[i])
            << "count=" << count << " lane=" << w << " bit=" << i;
      }
      EXPECT_EQ(group_stats[w].intra_errors, one_stats[0].intra_errors);
      EXPECT_EQ(group_stats[w].intra_bits, one_stats[0].intra_bits);
      EXPECT_EQ(group_stats[w].intra_errors, oracle_stats[0].intra_errors);
    }
  }
}

TEST(HopBatch, DegradedLadderShapesStayLaneBitwise) {
  // Dropout degradation swaps in a shrunken STBC design while the block
  // length stays the full design's K·b — the batch path must chunk the
  // sub-blocks exactly like the scalar path at every ladder step.
  const UnderlayHopPlan plan = make_plan(4, 2);
  const CoopHopBlockKernel kernel(plan, 30.0);
  oracle::HopOracle serial(plan, 30.0);
  const std::size_t bpb = kernel.bits_per_block();
  for (unsigned mt_use = 1; mt_use <= 3; ++mt_use) {
    const StbcDecoder degraded(StbcCode::for_antennas(mt_use));
    for (const BatchKernels* k : runnable_tiers()) {
      const std::size_t width = k->width;
      const std::size_t blk0 = 3;
      const BitVec payload = random_bits((blk0 + width) * bpb, 0xDE6);
      HopBatchWorkspace ws_serial, ws_batch;
      kernel.prepare_batch(ws_serial, width);
      kernel.prepare_batch(ws_batch, width);
      CoopHopBlockKernel::GroupStats
          stats_serial[CoopHopBlockKernel::kMaxLanes]{};
      CoopHopBlockKernel::GroupStats
          stats_batch[CoopHopBlockKernel::kMaxLanes]{};
      serial.run_group_serial(ws_serial, payload.data(), blk0, width, 41,
                              degraded, stats_serial);
      kernel.run_group_batch(ws_batch, payload.data(), blk0, width, 41,
                             degraded, stats_batch, k);
      expect_lanes_equal(ws_batch, ws_serial, width, bpb,
                         simd::tier_name(k->tier));
    }
  }
}

TEST(HopBatch, WorkspaceReuseAcrossDesignsIsClean) {
  // One workspace serving alternating full/degraded groups must not
  // leak state between configurations (configure_long_haul reshapes the
  // planes on every batch call).
  const UnderlayHopPlan plan = make_plan(4, 2);
  const CoopHopBlockKernel kernel(plan, 30.0);
  const std::size_t bpb = kernel.bits_per_block();
  const BatchKernels* k = &simd::active_kernels();
  const std::size_t width = k->width;
  const StbcDecoder degraded(StbcCode::for_antennas(3));
  const BitVec payload = random_bits(4 * width * bpb, 0xAB);
  HopBatchWorkspace reused, fresh;
  kernel.prepare_batch(reused, width);
  CoopHopBlockKernel::GroupStats stats[CoopHopBlockKernel::kMaxLanes]{};
  // Interleave designs on the reused workspace...
  for (int round = 0; round < 2; ++round) {
    for (std::size_t g = 0; g < 2; ++g) {
      const std::size_t blk0 = (2 * static_cast<std::size_t>(round) + g) *
                               width;
      const StbcDecoder& use = g == 0 ? kernel.decoder_full() : degraded;
      kernel.run_group_batch(reused, payload.data(), blk0, width, 59, use,
                             stats, k);
      // ...and check each group against a fresh workspace.
      kernel.prepare_batch(fresh, width);
      kernel.run_group_batch(fresh, payload.data(), blk0, width, 59, use,
                             stats, k);
      expect_lanes_equal(reused, fresh, width, bpb, "reused-vs-fresh");
    }
  }
}

TEST(HopBatch, SimulateCooperativeHopInvariantAcrossPoolSizes) {
  // End to end: the group-batched hop must stay bit-identical on 1 and
  // N workers (groups are keyed by block index, merged in block order).
  const UnderlayHopPlan plan = make_plan(4, 4);
  CoopHopSimConfig sim;
  sim.plan = plan;
  sim.bits = 6000;  // not a multiple of the group width — ragged tail
  sim.seed = 99;
  ThreadPool one(1);
  sim.pool = &one;
  const CoopHopSimResult ref = simulate_cooperative_hop(sim);
  ThreadPool many(4);
  sim.pool = &many;
  const CoopHopSimResult par = simulate_cooperative_hop(sim);
  EXPECT_EQ(ref.bits, par.bits);
  EXPECT_EQ(ref.bit_errors, par.bit_errors);
  EXPECT_DOUBLE_EQ(ref.intra_error_rate, par.intra_error_rate);
  EXPECT_TRUE(ref.resilience == par.resilience);
}

// FNV-1a over 64-bit words, byte by byte.
struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ULL;
    }
  }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

TEST(HopBatch, FaultedAndRaggedHopsMatchParentDigest) {
  // The fault paths no bench reaches: ARQ lanes of one group retrying
  // different numbers of times, an RLNC group straddling dropout_block,
  // both degraded from block 0, and fault-free ragged tails, at mt 1..4.
  // The digest pins every result field to the values the former
  // lane-serial driver produced; any change in draws, decoders or
  // bookkeeping moves it.
  struct Case {
    bool enabled;
    bool rlnc;
    double erasure;
    unsigned max_attempts;
    std::size_t dropout_block;
  };
  constexpr std::size_t kNever = ~std::size_t{0};
  const Case cases[] = {
      {false, false, 0.0, 4, kNever},  // fault-free, ragged tail
      {true, false, 0.5, 2, kNever},   // ARQ, lanes retry 0 or 1 times
      {true, false, 0.5, 4, kNever},   // ARQ, lanes retry 0..3 times
      {true, false, 0.3, 3, 13},       // ARQ, dropout inside a group
      {true, false, 0.2, 4, 0},        // ARQ degraded from block 0
      {true, true, 0.3, 4, 13},        // RLNC, group straddles dropout
      {true, true, 0.2, 4, 0},         // RLNC degraded from block 0
  };
  Fnv1a digest;
  for (unsigned mt = 1; mt <= 4; ++mt) {
    for (const unsigned mr : {1u, 2u}) {
      // BPSK (the planner's choice here) plus forced QPSK and 16-QAM, at
      // a local SNR low enough for broadcast errors.
      for (const int b : {1, 2, 4}) {
        UnderlayHopPlan plan = make_plan(mt, mr);
        plan.b = b;
        const std::size_t bpb =
            CoopHopBlockKernel(plan, 12.0).bits_per_block();
        std::uint64_t seed = 1000 * mt + 100 * mr + 10 * b;
        for (const Case& c : cases) {
          CoopHopSimConfig sim;
          sim.plan = plan;
          sim.bits = 61 * bpb - 3;  // 61 blocks: ragged at W = 2, 4, 8
          sim.local_snr_db = 12.0;
          sim.seed = ++seed;
          sim.faults.enabled = c.enabled;
          sim.faults.rlnc = c.rlnc;
          sim.faults.block_erasure_prob = c.erasure;
          sim.faults.max_attempts = c.max_attempts;
          sim.faults.dropout_block = c.dropout_block;
          sim.faults.seed = seed ^ 0x5A;
          const CoopHopSimResult r = simulate_cooperative_hop(sim);
          digest.add(r.bits);
          digest.add(r.bit_errors);
          digest.add_double(r.ber);
          digest.add_double(r.target_ber);
          digest.add_double(r.intra_error_rate);
          digest.add(r.resilience.blocks);
          digest.add(r.resilience.retransmitted_blocks);
          digest.add(r.resilience.degraded_blocks);
          digest.add(r.resilience.lost_blocks);
          digest.add(r.resilience.repair_blocks);
          digest.add(r.resilience.recovered_blocks);
        }
      }
    }
  }
  EXPECT_EQ(digest.h, 0x2A8398DB8ACD8977ULL) << std::hex << "0x" << digest.h;
}

TEST(HopBatch, WorkspacePlanesAre64ByteAligned) {
  const UnderlayHopPlan plan = make_plan(4, 2);
  const CoopHopBlockKernel kernel(plan, 30.0);
  HopBatchWorkspace ws;
  kernel.prepare_batch(ws, 4);
  const auto aligned = [](const auto& p) {
    return reinterpret_cast<std::uintptr_t>(p.data()) % 64 == 0;
  };
  EXPECT_TRUE(aligned(ws.ant_sym_re) && aligned(ws.ant_sym_im));
  EXPECT_TRUE(aligned(ws.link.h_re) && aligned(ws.link.h_im));
  EXPECT_TRUE(aligned(ws.link.rx_re) && aligned(ws.link.rx_im));
  EXPECT_EQ(ws.width, 4u);
  EXPECT_EQ(ws.bits_per_block, kernel.bits_per_block());
}

}  // namespace
}  // namespace comimo
