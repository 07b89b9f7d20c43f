// Waveform-level simulation of one Algorithm-2 cooperative hop.
//
// Where underlay/cooperative_hop.h *plans* a hop from the closed-form
// energy model, this module *executes* it sample by sample, including
// the imperfections the closed forms ignore:
//   step 1 — the head broadcasts over a finite-SNR intra-cluster AWGN
//            link; co-transmitters make independent hard decisions, so
//            decode-and-forward errors can desynchronize the antennas;
//   step 2 — each transmitter STBC-encodes *its own* bit estimate; the
//            mt×mr block rides a fresh Rayleigh H per block at exactly
//            the planned received energy ē_b;
//   step 3 — receivers forward their raw samples to the head over
//            finite-SNR local links (analog forwarding, extra noise);
//            the head performs the joint ML STBC decode.
//
// The end-to-end BER should track the plan's target; the validation
// bench sweeps the (mt, mr) grid and reports planned vs measured.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comimo/numeric/simd/simd.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_batch.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo {

class AwgnChannel;
class Rng;
class ThreadPool;


/// Waveform-level fault injection, off by default (the zero-fault path
/// is bit-identical to the original simulation — no extra RNG draws).
struct HopFaultConfig {
  bool enabled = false;
  /// Per-attempt probability an entire long-haul STBC block is erased
  /// (e.g. swamped by a collision); erasures trigger retransmission.
  double block_erasure_prob = 0.0;
  /// Transmission attempts per block before it is declared lost.
  unsigned max_attempts = 4;
  /// First block index at which one co-transmitter has dropped out;
  /// from there the long haul degrades one STBC ladder step (mt − 1),
  /// reusing the plan's ē_b (energy held, diversity lost).
  std::size_t dropout_block = ~std::size_t{0};
  std::uint64_t seed = 7;

  /// RLNC block repair as a peer of the retransmission loop: every
  /// block is sent ONCE (one erasure draw, no retries); erased blocks
  /// are then recovered per generation of `rlnc_generation` consecutive
  /// blocks by coded repair packets — each itself subject to the same
  /// erasure process — up to `rlnc_max_overhead` repairs per
  /// generation.  Off by default; the retransmission path is untouched.
  bool rlnc = false;
  std::size_t rlnc_generation = 8;
  unsigned rlnc_max_overhead = 32;
};

/// What the fault machinery did to one hop.
struct HopResilienceStats {
  std::size_t blocks = 0;
  std::size_t retransmitted_blocks = 0;  ///< needed more than one attempt
  std::size_t degraded_blocks = 0;       ///< sent with a shrunken STBC
  std::size_t lost_blocks = 0;  ///< every attempt erased; payload zeroed
  std::size_t repair_blocks = 0;     ///< coded repair packets sent (RLNC)
  std::size_t recovered_blocks = 0;  ///< erased blocks rebuilt by RLNC
  friend bool operator==(const HopResilienceStats&,
                         const HopResilienceStats&) = default;
};

struct CoopHopSimConfig {
  UnderlayHopPlan plan;          ///< from UnderlayCooperativeHop::plan
  std::size_t bits = 20000;      ///< payload length
  double local_snr_db = 30.0;    ///< intra-cluster link SNR (short range)
  std::uint64_t seed = 1;
  HopFaultConfig faults{};       ///< resilience hook, off by default
  /// Pool for the block-parallel inner loop; nullptr = shared pool.
  /// Every block derives its randomness from (seed, block index) only,
  /// so the result is bit-identical for any pool size.
  ThreadPool* pool = nullptr;
};

struct CoopHopSimResult {
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  double ber = 0.0;          ///< end-to-end, head → head
  double target_ber = 0.0;   ///< what the plan promised
  /// Fraction of intra-cluster broadcast bits any co-transmitter
  /// mis-decoded (step-1 DF impairment).
  double intra_error_rate = 0.0;
  HopResilienceStats resilience{};  ///< zeros when faults are off
};

/// The per-block hop pipeline packaged as a reusable kernel, lane-wide:
/// construction fixes the plan (modem, full STBC design, energies) and
/// the intra-cluster SNR; the methods then execute the three-step hop —
/// head broadcast, per-antenna long-haul STBC, analog collection — for
/// W independent blocks on a caller-owned HopBatchWorkspace.
///
/// The broadcast and the long haul each have one body, a W-wide SoA
/// pass on the batch kernels.  A group that fills the workspace's width
/// runs it once on the pinned table; every other lane (a ragged tail,
/// an ARQ retry, a group whose lanes need different STBC designs) runs
/// the same body at width 1 on the scalar table.  Noise is certified
/// (phy/link_batch.h): a pass keeps a lane's decisions only when no
/// exact noise sample within the approximation's bounds could flip one,
/// and reruns every other lane at width 1 with exact noise.  Each lane
/// derives its randomness from the counter-based (seed, block-index)
/// streams of the historical per-block simulation, and the batch
/// kernels preserve every rounding of the scalar path (the simd/
/// bit-identity contract), so lane w is bit-identical to that
/// simulation's block blk0 + w — asserted lane-bitwise against
/// tests/hop_oracle.h by tests/test_hop_batch.cpp at every tier.
class CoopHopBlockKernel {
 public:
  /// The widest group the stack-allocated per-lane stream arrays carry
  /// (= the widest SIMD tier, AVX-512's W = 8).
  static constexpr std::size_t kMaxLanes = simd::kMaxWidth;

  CoopHopBlockKernel(const UnderlayHopPlan& plan, double local_snr_db);

  /// Per-lane step-1 statistics (summed over a lane's co-transmitters).
  struct GroupStats {
    std::size_t intra_errors = 0;
    std::size_t intra_bits = 0;
  };

  /// Shapes `ws` for this kernel's full design at `width` lanes.
  void prepare_batch(HopBatchWorkspace& ws, std::size_t width) const;

  /// Step 1 for lanes [0, count): lane l's true bits, at
  /// bits + l·bits_per_block(), become its belief 0; each co-transmitter
  /// hard-decides its noisy broadcast copy into beliefs 1..mt−1,
  /// consuming local_noises[l] exactly like the historical block, and
  /// stats[l] counts its errors.  Dispatches like long_haul_batch.
  void broadcast_batch(HopBatchWorkspace& ws, std::size_t count,
                       const std::uint8_t* bits, AwgnChannel* local_noises,
                       GroupStats* stats,
                       const simd::BatchKernels* kernels = nullptr) const;

  /// Steps 2–3 for lanes [first, first + count) of `ws`, writing the
  /// head's decode into ws.decoded_lane(lane).  Lane l draws from the
  /// stream triple at index l of the three arrays, in the scalar draw
  /// order.  When the lanes fill the workspace's width and that width
  /// is the table's, they run as one pass on `kernels` (default: the
  /// pinned simd::active_kernels(); tests pass explicit tiers); else
  /// each lane runs at width 1 on the scalar table.  `decoder_use` may
  /// be a ladder-degraded design; sub-blocks then chunk accordingly.
  /// Safe to call repeatedly on one lane (ARQ retransmission attempts —
  /// fresh channel/noise from the streams).
  void long_haul_batch(HopBatchWorkspace& ws, std::size_t first,
                       std::size_t count, const StbcDecoder& decoder_use,
                       Rng* channel_rngs, AwgnChannel* long_haul_noises,
                       AwgnChannel* local_noises,
                       const simd::BatchKernels* kernels = nullptr) const;

  /// `count` consecutive blocks (blk0, blk0+1, …) of `payload`, streams
  /// constructed internally from (seed, block index): broadcast_batch,
  /// then long_haul_batch over lanes [0, count).  lane_stats receives
  /// `count` entries.
  void run_group_batch(HopBatchWorkspace& ws, const std::uint8_t* payload,
                       std::size_t blk0, std::size_t count,
                       std::uint64_t seed, const StbcDecoder& decoder_use,
                       GroupStats* lane_stats,
                       const simd::BatchKernels* kernels = nullptr) const;

  [[nodiscard]] std::size_t bits_per_block() const noexcept {
    return bits_per_block_;
  }
  [[nodiscard]] const StbcDecoder& decoder_full() const noexcept {
    return decoder_full_;
  }
  [[nodiscard]] double local_noise_var() const noexcept {
    return local_noise_var_;
  }

 private:
  /// One broadcast pass of k.width lanes starting at lane `first`; the
  /// pointers address that lane.  With `exact`, noise is libm
  /// Box–Muller and nothing is certified.
  void broadcast_pass(HopBatchWorkspace& ws, std::size_t first,
                      const simd::BatchKernels& k, const std::uint8_t* bits,
                      AwgnChannel* local_noises, GroupStats* stats,
                      bool exact) const;

  /// One long-haul pass of k.width lanes starting at lane `first`,
  /// drawing from the stream triples at index 0..k.width of the arrays.
  /// `exact` as for broadcast_pass.
  void long_haul_pass(HopBatchWorkspace& ws, std::size_t first,
                      const simd::BatchKernels& k,
                      const StbcDecoder& decoder_use, Rng* channel_rngs,
                      AwgnChannel* long_haul_noises,
                      AwgnChannel* local_noises, bool exact) const;

  std::unique_ptr<Modulator> modem_;
  DecisionEdges edges_;
  StbcDecoder decoder_full_;
  int b_ = 1;
  unsigned mt_ = 1;
  unsigned mr_ = 1;
  double ebar_ = 0.0;
  double n0_ = 0.0;
  double local_noise_var_ = 0.0;
  double local_sigma_ = 0.0;  ///< √(local_noise_var_/2), as AwgnChannel
  std::size_t bits_per_block_ = 0;
};

/// Runs the hop.  Requires plan.b ≤ 8 (the waveform modulators' range);
/// plans at longer ranges typically pick b ∈ {1, 2}.
[[nodiscard]] CoopHopSimResult simulate_cooperative_hop(
    const CoopHopSimConfig& config);

/// Cascades several hops (a backbone route): the bits leaving hop i
/// become hop i+1's payload, so per-hop errors accumulate the way a
/// real relay chain accumulates them (≈ Σ p_i for small p_i).
struct RouteSimResult {
  std::size_t bits = 0;
  std::size_t bit_errors = 0;
  double ber = 0.0;  ///< source bits vs what the final head decodes
  std::vector<CoopHopSimResult> hops;
};
[[nodiscard]] RouteSimResult simulate_route(
    const std::vector<UnderlayHopPlan>& plans, std::size_t bits,
    double local_snr_db = 30.0, std::uint64_t seed = 1,
    const HopFaultConfig& faults = {}, ThreadPool* pool = nullptr);

}  // namespace comimo
