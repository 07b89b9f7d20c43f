// Per-chunk arena for the batched link kernel.
//
// The per-block PHY path (draw channel → encode → propagate → add noise
// → ML decode) used to allocate every buffer per block.  A LinkWorkspace
// owns all of those buffers once per Monte-Carlo chunk; configure()
// shapes them with assign()/resize(), which reuse capacity, so the
// steady-state loop performs zero heap allocations once the workspace
// has seen its largest shape.  Every buffer is fully overwritten per
// block — reuse can never read stale state from a previous block, which
// tests/test_link_workspace.cpp checks across varying antenna counts.
//
// simulate_block_tilted() is the in-place composition of the historical
// allocating path in phy/ber_sweep.cpp with scalable draw variances: the
// RNG draw order (channel row-major, then noise row-major) and the
// accumulation order of the propagation sum are preserved exactly, so
// at unit variances it reproduces the golden BER tables of the
// allocating era — and every lane of the batch link kernel.
#pragma once

#include <cstddef>
#include <vector>

#include "comimo/numeric/cmatrix.h"
#include "comimo/phy/modulation.h"
#include "comimo/phy/stbc.h"

namespace comimo {

class Rng;

/// All per-block buffers of one simulated STBC link, reusable across
/// blocks and across (mt, mr) shapes.  Plain aggregate: callers fill
/// `symbols` (and optionally the bit staging areas), call
/// simulate_block_tilted(), and read `estimates` back.
struct LinkWorkspace {
  CMatrix h;         ///< mr × mt channel draw
  CMatrix encoded;   ///< T × mt transmitted block
  CMatrix received;  ///< T × mr received block
  std::vector<cplx> symbols;    ///< K symbols to transmit (caller-filled)
  std::vector<cplx> estimates;  ///< K decoded soft estimates
  BitVec bits;     ///< staging for the source bits of a block
  BitVec decoded;  ///< staging for demodulated bits
  StbcDecodeScratch decode_scratch;

  /// Shapes every buffer for `code` over an mr-antenna receiver.
  /// Idempotent and cheap when the shape is unchanged; growing to a new
  /// largest shape is the only point that may allocate.
  void configure(const StbcCode& code, std::size_t mr);
};

/// Sample-energy side channel of one tilted block draw: what the
/// importance-sampling caller needs to form the likelihood ratio.
struct TiltedBlockEnergy {
  double channel_sq = 0.0;  ///< Σ|h|² over the drawn channel entries
  double noise_sq = 0.0;    ///< Σ|n|² over the drawn noise samples
};

/// Runs one block through the link: a fresh Rayleigh channel drawn
/// from CN(0, channel_variance) into ws.h, ws.symbols encoded into
/// ws.encoded, propagated into ws.received, CN(0, noise_variance) AWGN
/// added, ML decode into ws.estimates.  ws must be configure()d for
/// decoder.code() and the intended mr (ws.h's row count).  Unit
/// variances give the nominal link; channel_variance < 1 over-samples
/// deep fades (the event that dominates high-SNR errors in a diversity
/// link) and noise_variance > 1 over-samples noise bursts — the
/// importance-sampling proposals of the adaptive rare-event tier
/// (mc/adaptive.h).  Returns the per-block sample energies the caller
/// needs for the likelihood ratio f/g.  The counter-based streams make
/// the raw draws identical at any variance; only the scaling differs.
TiltedBlockEnergy simulate_block_tilted(const StbcDecoder& decoder,
                                        LinkWorkspace& ws, Rng& rng,
                                        double noise_variance,
                                        double channel_variance);

}  // namespace comimo
