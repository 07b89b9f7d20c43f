#include "comimo/phy/link_workspace.h"

#include "comimo/common/error.h"
#include "comimo/numeric/rng.h"
#include "comimo/obs/metrics.h"

namespace comimo {

namespace {
// Block throughput counter for the zero-alloc kernel.  Registration is
// a one-time static; the hot-path add is a relaxed fetch-add behind the
// enabled() branch, preserving the 0-allocs/block steady state.
obs::Counter& link_blocks_counter() {
  static obs::Counter c =
      obs::MetricRegistry::global().counter("phy.link_blocks");
  return c;
}
}  // namespace

void LinkWorkspace::configure(const StbcCode& code, std::size_t mr) {
  COMIMO_CHECK(mr >= 1, "need a receive antenna");
  const std::size_t mt = code.num_tx();
  const std::size_t tt = code.block_length();
  const std::size_t kk = code.symbols_per_block();
  h.resize(mr, mt);
  encoded.resize(tt, mt);
  received.resize(tt, mr);
  symbols.assign(kk, cplx{0.0, 0.0});
  estimates.assign(kk, cplx{0.0, 0.0});
}

TiltedBlockEnergy simulate_block_tilted(const StbcDecoder& decoder,
                                        LinkWorkspace& ws, Rng& rng,
                                        double noise_variance,
                                        double channel_variance) {
  const StbcCode& code = decoder.code();
  COMIMO_DCHECK(ws.h.cols() == code.num_tx() &&
                    ws.encoded.rows() == code.block_length() &&
                    ws.received.rows() == code.block_length() &&
                    ws.received.cols() == ws.h.rows() &&
                    ws.symbols.size() == code.symbols_per_block() &&
                    ws.estimates.size() == code.symbols_per_block(),
                "workspace not configured for this code/mr");
  TiltedBlockEnergy energy;
  // Inlined random_gaussian_into with the sample-energy side channel:
  // identical draw order (row-major over the channel matrix).
  {
    cplx* p = ws.h.data();
    const std::size_t n = ws.h.size();
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = rng.complex_gaussian(channel_variance);
      energy.channel_sq += std::norm(p[i]);
    }
  }
  code.encode_into(ws.symbols, ws.encoded);
  multiply_transposed_into(ws.encoded, ws.h, ws.received);
  // Inlined add_scaled_noise_into, same side channel, same row-major
  // draw order over the received block.
  {
    cplx* p = ws.received.data();
    const std::size_t n = ws.received.size();
    for (std::size_t i = 0; i < n; ++i) {
      const cplx z = rng.complex_gaussian(noise_variance);
      energy.noise_sq += std::norm(z);
      p[i] += z;
    }
  }
  decoder.decode_into(ws.h, ws.received, ws.estimates, ws.decode_scratch);
  link_blocks_counter().add();
  return energy;
}

}  // namespace comimo
