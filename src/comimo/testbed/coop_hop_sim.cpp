#include "comimo/testbed/coop_hop_sim.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <optional>
#include <span>
#include <type_traits>

#include "comimo/channel/awgn.h"
#include "comimo/coding/rlnc.h"
#include "comimo/common/error.h"
#include "comimo/common/parallel.h"
#include "comimo/common/units.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/obs/trace.h"
#include "comimo/phy/detector.h"
#include "comimo/phy/link_batch.h"

namespace comimo {

namespace {

// Hop-level observability.  Block/retransmission totals and the hop BER
// are pure functions of the config seeds (deterministic domain); the
// hop wall time is not.  run_hop executes serially or directly inside a
// top-level run_trials trial, which satisfies the histogram observation
// discipline in obs/metrics.h.
struct HopObs {
  obs::Counter blocks = obs::MetricRegistry::global().counter("coophop.blocks");
  obs::Counter retransmitted = obs::MetricRegistry::global().counter(
      "coophop.retransmitted_blocks");
  obs::Counter lost =
      obs::MetricRegistry::global().counter("coophop.lost_blocks");
  obs::Counter repairs =
      obs::MetricRegistry::global().counter("coophop.repair_blocks");
  obs::Counter recovered =
      obs::MetricRegistry::global().counter("coophop.recovered_blocks");
  obs::Histogram hop_ber =
      obs::MetricRegistry::global().histogram("coophop.hop_ber");
  obs::Histogram hop_wall_s = obs::MetricRegistry::global().histogram(
      "coophop.hop_wall_s", obs::Domain::kRuntime);
};

HopObs& hop_obs() {
  static HopObs o;
  return o;
}

/// Per-lane counter-based streams for a group of consecutive blocks:
/// three data streams keyed off `seed` — each a pure function of the
/// block index, independent of scheduling — exactly the triple the
/// historical per-block simulation constructed.  Rng and AwgnChannel
/// have no default constructors, so the arrays live in raw stack
/// storage, placement-constructed per group; both types are trivially
/// destructible, so the group scope needs no cleanup.
struct LaneStreams {
  static_assert(std::is_trivially_destructible_v<Rng>);
  static_assert(std::is_trivially_destructible_v<AwgnChannel>);

  alignas(Rng) unsigned char channel_mem[sizeof(Rng) *
                                         CoopHopBlockKernel::kMaxLanes];
  alignas(AwgnChannel) unsigned char
      long_mem[sizeof(AwgnChannel) * CoopHopBlockKernel::kMaxLanes];
  alignas(AwgnChannel) unsigned char
      local_mem[sizeof(AwgnChannel) * CoopHopBlockKernel::kMaxLanes];
  Rng* channel;
  AwgnChannel* long_haul;
  AwgnChannel* local;

  LaneStreams(std::uint64_t seed, double local_noise_var, std::size_t blk0,
              std::size_t count) noexcept
      : channel(reinterpret_cast<Rng*>(channel_mem)),
        long_haul(reinterpret_cast<AwgnChannel*>(long_mem)),
        local(reinterpret_cast<AwgnChannel*>(local_mem)) {
    for (std::size_t w = 0; w < count; ++w) {
      const std::size_t blk = blk0 + w;
      ::new (static_cast<void*>(channel + w)) Rng(seed, 0x100 + blk * 3);
      ::new (static_cast<void*>(long_haul + w))
          AwgnChannel(1.0, Rng(seed, 0x100 + blk * 3 + 1));
      ::new (static_cast<void*>(local + w))
          AwgnChannel(local_noise_var, Rng(seed, 0x100 + blk * 3 + 2));
    }
  }
};

}  // namespace

CoopHopBlockKernel::CoopHopBlockKernel(const UnderlayHopPlan& plan,
                                       double local_snr_db)
    : modem_(make_modulator(plan.b)),
      decoder_full_(StbcCode::for_antennas(plan.config.mt)),
      b_(plan.b),
      mt_(plan.config.mt),
      mr_(plan.config.mr),
      ebar_(plan.ebar),
      n0_(SystemParams{}.n0_w_per_hz),  // ē_b already encodes p, b, m
      local_noise_var_(db_to_linear(-local_snr_db)) {
  COMIMO_CHECK(plan.b >= 1 && plan.b <= 8,
               "waveform simulation supports b in 1..8");
  COMIMO_CHECK(mr_ >= 1, "need a receive antenna");
  bits_per_block_ = decoder_full_.code().symbols_per_block() *
                    static_cast<std::size_t>(b_);
}

void CoopHopBlockKernel::prepare_batch(HopBatchWorkspace& ws,
                                       std::size_t width) const {
  ws.configure_hop(decoder_full_.code(), mr_, width, bits_per_block_);
}

void CoopHopBlockKernel::broadcast_lane(HopBatchWorkspace& ws,
                                        std::size_t lane,
                                        std::span<const std::uint8_t> bits,
                                        AwgnChannel& local_noise,
                                        GroupStats& stats) const {
  // --- Step 1: head broadcast; each co-transmitter decodes its own
  // noisy copy (the head itself holds the true bits).
  std::copy(bits.begin(), bits.end(), ws.belief(0, lane));
  if (mt_ > 1) {
    modem_->modulate_into(bits, ws.lane_syms);
    for (unsigned i = 1; i < mt_; ++i) {
      ws.lane_rx.assign(ws.lane_syms.begin(), ws.lane_syms.end());
      local_noise.apply(ws.lane_rx);
      modem_->demodulate_into(ws.lane_rx, ws.lane_decoded);
      std::copy(ws.lane_decoded.begin(), ws.lane_decoded.end(),
                ws.belief(i, lane));
      stats.intra_errors += count_bit_errors(bits, ws.lane_decoded);
      stats.intra_bits += bits.size();
    }
  }
}

void CoopHopBlockKernel::long_haul_batch(
    HopBatchWorkspace& ws, std::size_t first, std::size_t count,
    const StbcDecoder& decoder_use, Rng* channel_rngs,
    AwgnChannel* long_haul_noises, AwgnChannel* local_noises,
    const simd::BatchKernels* kernels) const {
  COMIMO_CHECK(count >= 1 && first + count <= ws.width &&
                   first + count <= kMaxLanes,
               "lanes must fit the configured lane width");
  const StbcCode& code_use = decoder_use.code();
  ws.configure_long_haul(code_use, mr_, ws.width,
                         code_use.symbols_per_block() *
                             static_cast<std::size_t>(b_));
  const simd::BatchKernels& k = kernels ? *kernels : simd::active_kernels();
  if (count == ws.width && count == k.width) {
    long_haul_pass(ws, 0, k, decoder_use, channel_rngs, long_haul_noises,
                   local_noises);
    return;
  }
  const simd::BatchKernels& scalar =
      *simd::kernels_for_tier(simd::Tier::kScalar);
  for (std::size_t l = first; l < first + count; ++l) {
    long_haul_pass(ws, l, scalar, decoder_use, channel_rngs + l,
                   long_haul_noises + l, local_noises + l);
  }
}

// Long haul for the active design (the first mt_use belief streams; the
// head is always antenna 0).  Symbol scaling: the solver's γ_b per unit
// ‖H‖²_F is ē_b/(N0·mt); with unit noise variance and the code's 1/√mt
// power split, scaling symbols by √(b·ē_b/N0) reproduces it exactly.
// Rate-1/2 designs transmit each symbol twice; divide the
// per-transmission energy by the symbol weight so the *per-bit*
// received energy equals ē_b.  Degraded blocks chunk into the smaller
// code's sub-blocks (K divides evenly down the whole G4 → G3 →
// Alamouti → SISO ladder).
void CoopHopBlockKernel::long_haul_pass(
    HopBatchWorkspace& ws, std::size_t first, const simd::BatchKernels& k,
    const StbcDecoder& decoder_use, Rng* channel_rngs,
    AwgnChannel* long_haul_noises, AwgnChannel* local_noises) const {
  const std::size_t W = k.width;
  const StbcCode& code_use = decoder_use.code();
  const std::size_t mt_use = code_use.num_tx();
  const std::size_t k_use = code_use.symbols_per_block();
  const std::size_t t_use = code_use.block_length();
  const std::size_t sub_bits = k_use * static_cast<std::size_t>(b_);
  const double sym_scale = std::sqrt(static_cast<double>(b_) * ebar_ / n0_ /
                                     code_use.symbol_weight());
  LinkBatchWorkspace& lb = ws.link;

  for (std::size_t sub = 0; sub < bits_per_block_; sub += sub_bits) {
    // --- Step 2: every antenna encodes its own belief; the receive
    // cluster observes the superposition through H plus unit noise.
    // Modulation stays scalar per lane (a table lookup); unscaled
    // symbols scatter into the per-antenna SoA planes, then every
    // arithmetic stage runs as vector ops whose lanes round exactly like
    // the scalar block.
    for (std::size_t i = 0; i < mt_use; ++i) {
      for (std::size_t w = 0; w < W; ++w) {
        modem_->modulate_into({ws.belief(i, first + w) + sub, sub_bits},
                              lb.symbols);
        for (std::size_t s = 0; s < k_use; ++s) {
          ws.ant_sym_re[(i * k_use + s) * W + w] = lb.symbols[s].real();
          ws.ant_sym_im[(i * k_use + s) * W + w] = lb.symbols[s].imag();
        }
      }
    }
    k.scale(ws.ant_sym_re.data(), ws.ant_sym_im.data(), mt_use * k_use,
            sym_scale);
    simd::random_gaussian_fill_batch(lb.h_re.data(), lb.h_im.data(),
                                     mr_ * mt_use, W, channel_rngs, 1.0);
    k.stbc_encode_multi(code_use.coeff_a_flat().data(),
                        code_use.coeff_b_flat().data(), t_use, mt_use, k_use,
                        code_use.power_scale(), ws.ant_sym_re.data(),
                        ws.ant_sym_im.data(), lb.enc_re.data(),
                        lb.enc_im.data());
    k.multiply_transposed(lb.enc_re.data(), lb.enc_im.data(), lb.h_re.data(),
                          lb.h_im.data(), lb.rx_re.data(), lb.rx_im.data(),
                          t_use, mt_use, mr_);
    // Noise stays scalar per lane: each lane's AwgnChannel must advance
    // exactly as in the scalar block, in the scalar element order —
    // row-major over (t, j) for the long haul…
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t e = 0; e < t_use * mr_; ++e) {
        const cplx z = long_haul_noises[w].sample();
        lb.rx_re[e * W + w] += z.real();
        lb.rx_im[e * W + w] += z.imag();
      }
    }
    // --- Step 3: non-head receivers forward raw samples to the head
    // over local links (analog forwarding adds local noise), column-major
    // over (j, t); the complex·double scale is componentwise, so adding
    // the scaled components reproduces `received += sample() * sym_scale`
    // exactly.  The head then joint-decodes.
    for (std::size_t w = 0; w < W; ++w) {
      for (unsigned j = 1; j < mr_; ++j) {
        for (std::size_t t = 0; t < t_use; ++t) {
          const cplx z = local_noises[w].sample();
          lb.rx_re[(t * mr_ + j) * W + w] += z.real() * sym_scale;
          lb.rx_im[(t * mr_ + j) * W + w] += z.imag() * sym_scale;
        }
      }
    }
    decode_demap_batch(k, code_use, mr_, *modem_, sym_scale, lb,
                       ws.decoded_lane(first) + sub, bits_per_block_);
  }
}

void CoopHopBlockKernel::run_group_batch(
    HopBatchWorkspace& ws, const std::uint8_t* payload, std::size_t blk0,
    std::size_t count, std::uint64_t seed, const StbcDecoder& decoder_use,
    GroupStats* lane_stats, const simd::BatchKernels* kernels) const {
  COMIMO_CHECK(count >= 1 && count <= kMaxLanes && count <= ws.width,
               "group must fit the configured lane width");
  LaneStreams streams(seed, local_noise_var_, blk0, count);
  for (std::size_t w = 0; w < count; ++w) {
    broadcast_lane(ws, w,
                   {payload + (blk0 + w) * bits_per_block_, bits_per_block_},
                   streams.local[w], lane_stats[w]);
  }
  long_haul_batch(ws, 0, count, decoder_use, streams.channel,
                  streams.long_haul, streams.local, kernels);
}

namespace {

/// Pushes `payload` through one hop; returns the bits the receiving
/// head decodes and fills the result's error statistics relative to
/// the payload.  With `faults.enabled` the long-haul block can be
/// erased (→ retransmission, fresh channel and noise per attempt) and a
/// co-transmitter can drop out mid-transfer (→ the remaining antennas
/// fall one STBC ladder step, reusing the plan's ē_b).
///
/// Blocks run in groups of the pinned SIMD lane width, groups in
/// parallel across `pool`: every block derives all of its randomness
/// from counter-based streams keyed by (seed, block index), and
/// per-block outputs merge in block order, so the hop result is
/// bit-identical on 1 or N workers — and, because each batch lane
/// reproduces the scalar block's bits exactly, identical at every SIMD
/// tier and pass width too.
BitVec run_hop(const UnderlayHopPlan& plan, const BitVec& payload,
               double local_snr_db, std::uint64_t seed,
               const HopFaultConfig& faults, CoopHopSimResult& result,
               ThreadPool* pool) {
  COMIMO_CHECK(plan.b >= 1 && plan.b <= 8,
               "waveform simulation supports b in 1..8");
  COMIMO_CHECK(!payload.empty(), "need bits to send");
  if (faults.enabled) {
    COMIMO_CHECK(faults.block_erasure_prob >= 0.0 &&
                     faults.block_erasure_prob < 1.0,
                 "block erasure probability must be in [0, 1)");
    COMIMO_CHECK(faults.max_attempts >= 1, "need at least one attempt");
  }
  const unsigned mt = plan.config.mt;
  const obs::SpanTimer hop_span("coophop.hop", hop_obs().hop_wall_s);

  const CoopHopBlockKernel kernel(plan, local_snr_db);
  const std::size_t bits_per_block = kernel.bits_per_block();
  const StbcDecoder& decoder_full = kernel.decoder_full();
  // Decoders are immutable and shared across blocks; build them once per
  // hop instead of once per block.  The fault path can drop one
  // co-transmitter, so the degraded design is prebuilt as well.
  std::optional<StbcDecoder> decoder_degraded;
  if (faults.enabled && mt > 1) {
    decoder_degraded.emplace(StbcCode::for_antennas(mt - 1));
  }

  const BitVec padded = pad_to_multiple(payload, bits_per_block);
  const std::size_t num_blocks = padded.size() / bits_per_block;

  // Per-block output slots, merged in block order after the fan-out.
  struct BlockOut {
    BitVec decoded;
    std::size_t intra_errors = 0;
    std::size_t intra_bits = 0;
    bool erased = false;  ///< RLNC mode: this block's one send was lost
    HopResilienceStats res;
  };
  std::vector<BlockOut> outs(num_blocks);

  // Blocks travel in groups of the pinned SIMD lane width.  Every
  // block owns its channel, noise and erasure streams, so a group runs
  // each lane's broadcast, then every lane's first long-haul attempt in
  // one long_haul_batch call — one W-wide pass when the group is full
  // and its lanes share a design — and only then per-lane bookkeeping
  // and ARQ retries at width 1.  The dropout predicate is monotone in
  // the block index, so only the group straddling dropout_block mixes
  // designs; its lanes run at width 1 too.
  const std::size_t group =
      std::max<std::size_t>(std::size_t{1}, simd::batch_width());
  const std::size_t num_groups = (num_blocks + group - 1) / group;
  const auto degraded = [&](std::size_t blk) {
    return faults.enabled && mt > 1 && blk >= faults.dropout_block;
  };
  const auto decoder_for = [&](std::size_t blk) -> const StbcDecoder& {
    return degraded(blk) ? *decoder_degraded : decoder_full;
  };

  const auto run_group = [&](std::size_t g) {
    const std::size_t blk0 = g * group;
    const std::size_t count = std::min(group, num_blocks - blk0);
    // One arena per worker thread, reused for every group the thread
    // executes; each group fully overwrites what it reads.
    thread_local HopBatchWorkspace ws;
    kernel.prepare_batch(ws, group);
    LaneStreams streams(seed, kernel.local_noise_var(), blk0, count);
    CoopHopBlockKernel::GroupStats lane_stats[CoopHopBlockKernel::kMaxLanes]{};
    for (std::size_t w = 0; w < count; ++w) {
      kernel.broadcast_lane(
          ws, w, {padded.data() + (blk0 + w) * bits_per_block, bits_per_block},
          streams.local[w], lane_stats[w]);
    }
    if (degraded(blk0) == degraded(blk0 + count - 1)) {
      kernel.long_haul_batch(ws, 0, count, decoder_for(blk0), streams.channel,
                             streams.long_haul, streams.local);
    } else {
      for (std::size_t w = 0; w < count; ++w) {
        kernel.long_haul_batch(ws, w, 1, decoder_for(blk0 + w),
                               streams.channel, streams.long_haul,
                               streams.local);
      }
    }

    for (std::size_t w = 0; w < count; ++w) {
      const std::size_t blk = blk0 + w;
      BlockOut& slot = outs[blk];
      slot.intra_errors = lane_stats[w].intra_errors;
      slot.intra_bits = lane_stats[w].intra_bits;
      bool arrived = true;
      if (faults.enabled) {
        if (degraded(blk)) ++slot.res.degraded_blocks;
        ++slot.res.blocks;
        Rng fault_rng(faults.seed, 0xFA000 + blk);
        if (faults.rlnc) {
          // Coded repair mode: one send, one erasure draw, no retries —
          // the serial per-generation repair pass below rebuilds erased
          // blocks.
          slot.erased = fault_rng.bernoulli(faults.block_erasure_prob);
        } else {
          // Retransmission: each erased attempt is retried with fresh
          // channel and noise from the block's own streams.
          unsigned attempts = 1;
          arrived = !fault_rng.bernoulli(faults.block_erasure_prob);
          while (!arrived && attempts < faults.max_attempts) {
            kernel.long_haul_batch(ws, w, 1, decoder_for(blk),
                                   streams.channel, streams.long_haul,
                                   streams.local);
            ++attempts;
            arrived = !fault_rng.bernoulli(faults.block_erasure_prob);
          }
          if (attempts > 1) ++slot.res.retransmitted_blocks;
          if (!arrived) ++slot.res.lost_blocks;
        }
      }
      if (arrived) {
        const std::uint8_t* dec = ws.decoded_lane(w);
        slot.decoded.assign(dec, dec + bits_per_block);
      } else {
        slot.decoded.assign(bits_per_block, 0);  // never arrived
      }
    }
  };

  parallel_for(pool ? *pool : ThreadPool::shared(), num_groups, run_group);

  // RLNC repair pass (serial, post-merge-order, pool-size independent):
  // each generation of consecutive blocks is a rank-tracking decoder —
  // received blocks contribute systematic rows, and coded repair
  // packets (dense GF(256) rows, themselves subject to erasure) top the
  // rank up.  A completed generation rebuilds every erased block from
  // the combinations; an incomplete one zeroes them as lost.
  if (faults.enabled && faults.rlnc && num_blocks > 0) {
    const std::size_t gen_size =
        std::max<std::size_t>(std::size_t{1}, faults.rlnc_generation);
    for (std::size_t g0 = 0, gen = 0; g0 < num_blocks;
         g0 += gen_size, ++gen) {
      const std::size_t n = std::min(gen_size, num_blocks - g0);
      coding::RlncConfig code_cfg;
      code_cfg.generation_size = n;
      code_cfg.packet_bytes = 0;  // rank bookkeeping only
      coding::RlncDecoder dec(code_cfg);
      bool any_erased = false;
      coding::CodedPacket pkt;
      for (std::size_t i = 0; i < n; ++i) {
        if (outs[g0 + i].erased) {
          any_erased = true;
          continue;
        }
        pkt.coeffs.assign(n, 0);
        pkt.coeffs[i] = 1;
        pkt.payload.clear();
        (void)dec.add(pkt);
      }
      if (!any_erased) continue;
      Rng repair_rng(faults.seed, 0x4EC0DE + gen);
      unsigned repairs = 0;
      while (!dec.complete() && repairs < faults.rlnc_max_overhead) {
        ++repairs;
        // The repair packet rides the same channel as the data blocks.
        if (repair_rng.bernoulli(faults.block_erasure_prob)) continue;
        pkt.coeffs.assign(n, 0);
        pkt.payload.clear();
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
          pkt.coeffs[i] =
              coding::draw_coefficient(code_cfg.field, repair_rng);
          any = any || pkt.coeffs[i] != 0;
        }
        if (!any) pkt.coeffs[0] = 1;
        (void)dec.add(pkt);
      }
      result.resilience.repair_blocks += repairs;
      for (std::size_t i = 0; i < n; ++i) {
        BlockOut& slot = outs[g0 + i];
        if (!slot.erased) continue;
        if (dec.complete()) {
          // Recovered: the block's decoded waveform bits stand.
          ++result.resilience.recovered_blocks;
        } else {
          slot.decoded.assign(bits_per_block, 0);
          ++slot.res.lost_blocks;
        }
      }
    }
  }

  BitVec out;
  out.reserve(padded.size());
  std::size_t intra_errors = 0;
  std::size_t intra_bits = 0;
  for (BlockOut& slot : outs) {
    out.insert(out.end(), slot.decoded.begin(), slot.decoded.end());
    intra_errors += slot.intra_errors;
    intra_bits += slot.intra_bits;
    result.resilience.blocks += slot.res.blocks;
    result.resilience.retransmitted_blocks += slot.res.retransmitted_blocks;
    result.resilience.degraded_blocks += slot.res.degraded_blocks;
    result.resilience.lost_blocks += slot.res.lost_blocks;
  }

  out.resize(payload.size());
  result.bits = payload.size();
  result.bit_errors = count_bit_errors(payload, out);
  result.ber = static_cast<double>(result.bit_errors) /
               static_cast<double>(payload.size());
  result.target_ber = plan.config.ber;
  result.intra_error_rate =
      intra_bits ? static_cast<double>(intra_errors) /
                       static_cast<double>(intra_bits)
                 : 0.0;
  HopObs& o = hop_obs();
  o.blocks.add(num_blocks);
  o.retransmitted.add(result.resilience.retransmitted_blocks);
  o.lost.add(result.resilience.lost_blocks);
  o.repairs.add(result.resilience.repair_blocks);
  o.recovered.add(result.resilience.recovered_blocks);
  o.hop_ber.observe(result.ber);
  return out;
}

}  // namespace

CoopHopSimResult simulate_cooperative_hop(const CoopHopSimConfig& config) {
  COMIMO_CHECK(config.bits >= 1, "need bits to send");
  const BitVec payload = random_bits(config.bits, config.seed ^ 0xB17);
  CoopHopSimResult result;
  (void)run_hop(config.plan, payload, config.local_snr_db, config.seed,
                config.faults, result, config.pool);
  return result;
}

RouteSimResult simulate_route(const std::vector<UnderlayHopPlan>& plans,
                              std::size_t bits, double local_snr_db,
                              std::uint64_t seed,
                              const HopFaultConfig& faults,
                              ThreadPool* pool) {
  COMIMO_CHECK(!plans.empty(), "route needs at least one hop");
  COMIMO_CHECK(bits >= 1, "need bits to send");
  const BitVec source = random_bits(bits, seed ^ 0xB17);
  BitVec current = source;
  RouteSimResult result;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    CoopHopSimResult hop_result;
    current = run_hop(plans[i], current, local_snr_db,
                      seed + 0x9E37 * (i + 1), faults, hop_result, pool);
    result.hops.push_back(hop_result);
  }
  result.bits = bits;
  result.bit_errors = count_bit_errors(source, current);
  result.ber = static_cast<double>(result.bit_errors) /
               static_cast<double>(bits);
  return result;
}

}  // namespace comimo
