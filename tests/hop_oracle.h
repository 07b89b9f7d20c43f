// The lane-serial cooperative hop, kept as the oracle of
// CoopHopBlockKernel's batch long haul.
//
// Each lane runs the historical per-block scalar path: one
// LinkWorkspace, the block assembled antenna by antenna (every virtual
// antenna transmits its own, possibly mis-decoded, belief), scalar
// propagation and noise, StbcDecoder::decode_into and
// Modulator::demodulate_into.  The broadcast leg is the kernel's own
// broadcast_lane, and results land in a HopBatchWorkspace's lane-major
// decoded output, so tests compare the two lane by lane.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "comimo/channel/awgn.h"
#include "comimo/common/constants.h"
#include "comimo/numeric/cmatrix.h"
#include "comimo/numeric/rng.h"
#include "comimo/phy/hop_batch.h"
#include "comimo/phy/link_workspace.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"
#include "comimo/testbed/coop_hop_sim.h"
#include "comimo/underlay/cooperative_hop.h"

namespace comimo::oracle {

class HopOracle {
 public:
  HopOracle(const UnderlayHopPlan& plan, double local_snr_db)
      : kernel_(plan, local_snr_db),
        modem_(make_modulator(plan.b)),
        b_(plan.b),
        mr_(plan.config.mr),
        ebar_(plan.ebar),
        n0_(SystemParams{}.n0_w_per_hz) {}

  /// Steps 2–3 for one lane through the scalar path, writing the head's
  /// decode into ws.decoded_lane(lane).  Symbol scaling: √(b·ē_b/N0)
  /// over the code's symbol weight, as in the kernel; degraded designs
  /// chunk the block into the smaller code's sub-blocks.
  void long_haul_lane(HopBatchWorkspace& ws, std::size_t lane,
                      const StbcDecoder& decoder_use, Rng& channel_rng,
                      AwgnChannel& long_haul_noise,
                      AwgnChannel& local_noise) {
    const StbcCode& code_use = decoder_use.code();
    const auto mt_use = static_cast<unsigned>(code_use.num_tx());
    const std::size_t k_use = code_use.symbols_per_block();
    const std::size_t t_use = code_use.block_length();
    const std::size_t sub_bits = k_use * static_cast<std::size_t>(b_);
    const std::size_t bpb = kernel_.bits_per_block();
    const double sym_scale = std::sqrt(static_cast<double>(b_) * ebar_ /
                                       n0_ / code_use.symbol_weight());
    lw_.configure(code_use, mr_);
    if (ant_syms_.size() < mt_use) ant_syms_.resize(mt_use);
    std::uint8_t* decoded_out = ws.decoded_lane(lane);
    for (std::size_t sub = 0; sub < bpb; sub += sub_bits) {
      for (unsigned i = 0; i < mt_use; ++i) {
        std::vector<cplx>& syms = ant_syms_[i];
        modem_->modulate_into({ws.belief(i, lane) + sub, sub_bits}, syms);
        for (auto& v : syms) v *= sym_scale;
      }
      random_gaussian_into(lw_.h, channel_rng);
      for (std::size_t t = 0; t < t_use; ++t) {
        for (unsigned i = 0; i < mt_use; ++i) {
          cplx c_ti{0.0, 0.0};
          for (std::size_t k = 0; k < k_use; ++k) {
            c_ti += code_use.coeff_a(t, i, k) * ant_syms_[i][k] +
                    code_use.coeff_b(t, i, k) * std::conj(ant_syms_[i][k]);
          }
          lw_.encoded(t, i) = c_ti * code_use.power_scale();
        }
      }
      multiply_transposed_into(lw_.encoded, lw_.h, lw_.received);
      for (std::size_t t = 0; t < t_use; ++t) {
        for (unsigned j = 0; j < mr_; ++j) {
          lw_.received(t, j) += long_haul_noise.sample();
        }
      }
      for (unsigned j = 1; j < mr_; ++j) {
        for (std::size_t t = 0; t < t_use; ++t) {
          lw_.received(t, j) += local_noise.sample() * sym_scale;
        }
      }
      decoder_use.decode_into(lw_.h, lw_.received, lw_.estimates,
                              lw_.decode_scratch);
      for (auto& v : lw_.estimates) v /= sym_scale;
      modem_->demodulate_into(lw_.estimates, lw_.decoded);
      std::copy(lw_.decoded.begin(), lw_.decoded.end(), decoded_out + sub);
    }
  }

  /// `count` consecutive blocks (blk0, blk0+1, …) of `payload`, one lane
  /// at a time, each with the (seed, block index) stream triple of the
  /// historical simulation.  lane_stats receives `count` entries.
  void run_group_serial(HopBatchWorkspace& ws, const std::uint8_t* payload,
                        std::size_t blk0, std::size_t count,
                        std::uint64_t seed, const StbcDecoder& decoder_use,
                        CoopHopBlockKernel::GroupStats* lane_stats) {
    const std::size_t bpb = kernel_.bits_per_block();
    for (std::size_t w = 0; w < count; ++w) {
      const std::size_t blk = blk0 + w;
      Rng channel(seed, 0x100 + blk * 3);
      AwgnChannel long_haul(1.0, Rng(seed, 0x100 + blk * 3 + 1));
      AwgnChannel local(kernel_.local_noise_var(),
                        Rng(seed, 0x100 + blk * 3 + 2));
      kernel_.broadcast_lane(ws, w, {payload + blk * bpb, bpb}, local,
                             lane_stats[w]);
      long_haul_lane(ws, w, decoder_use, channel, long_haul, local);
    }
  }

 private:
  CoopHopBlockKernel kernel_;
  std::unique_ptr<Modulator> modem_;
  int b_;
  unsigned mr_;
  double ebar_;
  double n0_;
  LinkWorkspace lw_;
  std::vector<std::vector<cplx>> ant_syms_;
};

}  // namespace comimo::oracle
