// Digest pins over every decoded bit of the batch link and of the
// cooperative hop.  The values were harvested from the kernels that
// evaluated all noise with libm Box–Muller, in the default build and in
// the COMIMO_SIMD=OFF build (equal in both); any decision that moves,
// any draw that shifts a stream and any result field that changes moves
// a digest.  The lane layout is fixed at eight lanes so the digests do
// not depend on the pinned SIMD width; the pinned width's one-pass
// branch is compared against it lane by lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/ber_sweep.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {
namespace {

constexpr std::size_t kLanes = CoopHopBlockKernel::kMaxLanes;

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
  void add_bits(const std::uint8_t* bits, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) add(bits[i]);
  }
};

TEST(DecodedDigest, RunBlockBatchEveryShapeAndCountMatchesPin) {
  // mt 1..4 × mr 1..4 × b ∈ {1, 2, 3, 4, 6} × γ_b ∈ {−10, 0, 8, 20,
  // 40} dB, every count 1..8 on a workspace eight lanes wide: each lane's
  // source and decoded bits, the pass's error count, and the word each
  // lane's stream draws next.
  const std::size_t pinned = simd::batch_width();
  Fnv1a digest;
  for (unsigned mt = 1; mt <= 4; ++mt) {
    for (unsigned mr = 1; mr <= 4; ++mr) {
      for (const int b : {1, 2, 3, 4, 6}) {
        for (const double gamma_db : {-10.0, 0.0, 8.0, 20.0, 40.0}) {
          const WaveformBerKernel kernel(b, mt, mr, db_to_linear(gamma_db));
          const std::size_t bpb = kernel.bits_per_block();
          HopBatchWorkspace ws, ws_pinned;
          kernel.prepare_batch(ws, kLanes);
          kernel.prepare_batch(ws_pinned, pinned);
          const std::uint64_t seed = 1000 * mt + 100 * mr + 10 * b;
          for (std::size_t count = 1; count <= kLanes; ++count) {
            const std::uint64_t base =
                static_cast<std::uint64_t>(gamma_db + 20.0) * 64 + 8 * count;
            std::vector<Rng> rngs;
            for (std::size_t i = 0; i < count; ++i) {
              rngs.emplace_back(seed, base + i);
            }
            digest.add(kernel.run_block_batch(ws, rngs.data(), count));
            digest.add_bits(ws.link.bits.data(), count * bpb);
            digest.add_bits(ws.link.decoded.data(), count * bpb);
            for (Rng& rng : rngs) digest.add(rng.next());
            if (count == pinned && pinned != kLanes) {
              std::vector<Rng> again;
              for (std::size_t i = 0; i < count; ++i) {
                again.emplace_back(seed, base + i);
              }
              (void)kernel.run_block_batch(ws_pinned, again.data(), count);
              for (std::size_t i = 0; i < count * bpb; ++i) {
                ASSERT_EQ(ws_pinned.link.decoded[i], ws.link.decoded[i])
                    << "mt=" << mt << " mr=" << mr << " b=" << b
                    << " gamma=" << gamma_db << " bit " << i;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(digest.h, 0x03DF0E7628239105ULL) << std::hex << "0x" << digest.h;
}

// The fault-free hop's decoded bits, block groups of eight lanes driven
// the way simulate_cooperative_hop drives them; intra-cluster error
// counts go into the digest too.
BitVec hop_output(const UnderlayHopPlan& plan, const BitVec& payload,
                  double local_snr_db, std::uint64_t seed, Fnv1a& digest) {
  const CoopHopBlockKernel kernel(plan, local_snr_db);
  const std::size_t bpb = kernel.bits_per_block();
  const BitVec padded = pad_to_multiple(payload, bpb);
  const std::size_t blocks = padded.size() / bpb;
  HopBatchWorkspace ws;
  kernel.prepare_batch(ws, kLanes);
  BitVec out(padded.size());
  for (std::size_t blk0 = 0; blk0 < blocks; blk0 += kLanes) {
    const std::size_t count = std::min(kLanes, blocks - blk0);
    CoopHopBlockKernel::GroupStats stats[kLanes]{};
    kernel.run_group_batch(ws, padded.data(), blk0, count, seed,
                           kernel.decoder_full(), stats);
    for (std::size_t w = 0; w < count; ++w) {
      std::copy_n(ws.decoded_lane(w), bpb, out.data() + (blk0 + w) * bpb);
      digest.add(stats[w].intra_errors);
      digest.add(stats[w].intra_bits);
    }
  }
  out.resize(payload.size());
  return out;
}

void add_result(Fnv1a& digest, const CoopHopSimResult& r) {
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

TEST(DecodedDigest, ValidationGridAndRouteMatchPin) {
  ThreadPool pool(2);
  const UnderlayCooperativeHop planner;
  Fnv1a digest;
  // bench/validate_energy_model's nine cells at 20 000 bits.
  for (unsigned mt = 1; mt <= 3; ++mt) {
    for (unsigned mr = 1; mr <= 3; ++mr) {
      UnderlayHopConfig cfg;
      cfg.mt = mt;
      cfg.mr = mr;
      cfg.hop_distance_m = 200.0;
      cfg.ber = 1e-2;
      CoopHopSimConfig sim;
      sim.plan = planner.plan(cfg, BSelectionRule::kMinTotalPa);
      sim.bits = 20000;
      sim.seed = 11;
      sim.pool = &pool;
      const CoopHopSimResult r = simulate_cooperative_hop(sim);
      add_result(digest, r);
      const BitVec payload = random_bits(sim.bits, sim.seed ^ 0xB17);
      const BitVec out = hop_output(sim.plan, payload, sim.local_snr_db,
                                    sim.seed, digest);
      digest.add_bits(out.data(), out.size());
      EXPECT_EQ(count_bit_errors(payload, out), r.bit_errors)
          << mt << "x" << mr;
    }
  }
  // perfbench's 2×2 → 4×2 → 4×4 backbone at 10⁻³, 40 000 bits.
  std::vector<UnderlayHopPlan> plans;
  for (const auto [mt, mr] : {std::pair{2u, 2u}, {4u, 2u}, {4u, 4u}}) {
    UnderlayHopConfig cfg;
    cfg.mt = mt;
    cfg.mr = mr;
    cfg.hop_distance_m = 200.0;
    cfg.ber = 1e-3;
    plans.push_back(planner.plan(cfg));
  }
  const std::uint64_t seed = 101;
  const RouteSimResult route =
      simulate_route(plans, 40000, 30.0, seed, {}, &pool);
  digest.add(route.bits);
  digest.add(route.bit_errors);
  digest.add_double(route.ber);
  BitVec current = random_bits(40000, seed ^ 0xB17);
  const BitVec source = current;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    add_result(digest, route.hops[i]);
    current = hop_output(plans[i], current, 30.0, seed + 0x9E37 * (i + 1),
                         digest);
    digest.add_bits(current.data(), current.size());
  }
  EXPECT_EQ(count_bit_errors(source, current), route.bit_errors);
  EXPECT_EQ(digest.h, 0xD084674B03D8E22EULL) << std::hex << "0x" << digest.h;
}

}  // namespace
}  // namespace comimo
