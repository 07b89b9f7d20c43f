// Batch-of-blocks arena for the SIMD link kernel.
//
// Where LinkWorkspace holds one STBC block, LinkBatchWorkspace holds W
// independent Monte-Carlo blocks side by side in split-complex SoA
// planes (numeric/simd/simd.h: element e of lane w at plane[e·W + w],
// planes 64-byte aligned) so every arithmetic step of the link — encode,
// propagate, noise add, real-expansion decode, demod distance — runs as
// one vector op over W lanes.  Each lane is bit-identical to the scalar
// LinkWorkspace block on the same Rng, which is what lets
// WaveformBerKernel::run_block_batch drop in under measure_waveform_ber
// without disturbing a single golden table.
//
// A pass may also run narrower than the workspace — width 1 on the
// scalar kernel table, for chunk tails, ragged hop tails and ARQ
// retries — and then uses the head of each plane.  Every pass writes
// each plane element before it reads it, so planes carry no state
// between passes of any width or shape.
//
// The per-lane pieces that stay scalar on purpose:
//   * RNG draws (bits, channel, noise) — one generator per lane, scalar
//     Box–Muller, so the (seed, trial) stream contract is untouched;
//   * modulation table lookups — exact copies, no arithmetic;
//   * the pivoted gram solve — pivoting is data-dependent per lane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "comimo/numeric/aligned.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {

namespace simd {
struct BatchKernels;
}  // namespace simd

/// All buffers for W blocks of one simulated STBC link.  Plain
/// aggregate: configure() shapes every plane with resize(), which
/// reuses capacity, so the steady-state batch loop is allocation-free
/// once the workspace has seen its largest (shape, width).
struct LinkBatchWorkspace {
  // Split-complex SoA planes, elems × width doubles each.
  AlignedVec<double> h_re, h_im;      ///< mr × mt channel draws
  AlignedVec<double> enc_re, enc_im;  ///< T × mt transmitted blocks
  AlignedVec<double> rx_re, rx_im;    ///< T × mr received blocks
  AlignedVec<double> sym_re, sym_im;  ///< K symbols to transmit
  AlignedVec<double> est_re, est_im;  ///< K decoded soft estimates
  // Real-expansion decode planes (2TMr × 2K design matrix and friends).
  AlignedVec<double> f;     ///< rows × cols plane
  AlignedVec<double> y;     ///< rows plane
  AlignedVec<double> gram;  ///< cols × cols plane (FᵀF)
  AlignedVec<double> rhs;   ///< cols plane (Fᵀy)
  std::vector<std::uint32_t> labels;  ///< K × width demod labels
  // Lane-major bit staging: lane w's block occupies
  // [w·bits_per_block, (w+1)·bits_per_block).
  BitVec bits;
  BitVec decoded;
  std::vector<cplx> symbols;  ///< one lane's modulator output, staged
  StbcDecodeScratch solve_scratch;  ///< per-lane gram solve
  std::size_t width = 0;  ///< lanes currently configured

  /// Shapes every plane for `code` over an mr-antenna receiver, `width`
  /// lanes wide.  Idempotent and cheap when nothing changed.
  void configure(const StbcCode& code, std::size_t mr, std::size_t width,
                 std::size_t bits_per_block);
};

/// The ML decode and hard demap of one pass, k.width lanes wide
/// (k.width ≤ ws.width): builds the real-expansion F/y planes from
/// ws.h_* and ws.rx_*, forms the normal equations, solves each lane's
/// system with the scalar pivoted eliminator — StbcDecoder::decode_into's
/// exact path — divides the estimates by sym_scale and hard-demaps them.
/// BPSK keeps its sign rule (distance ties at ±0 would flip the bit the
/// sign rule picks); QAM runs the vector distance argmin and unpacks
/// labels MSB-first like Modulator::demodulate_into.  Lane w's
/// K·bits_per_symbol bits land at decoded + w·lane_stride.
void decode_demap_batch(const simd::BatchKernels& k, const StbcCode& code,
                        std::size_t mr, const Modulator& modem,
                        double sym_scale, LinkBatchWorkspace& ws,
                        std::uint8_t* decoded, std::size_t lane_stride);

}  // namespace comimo
