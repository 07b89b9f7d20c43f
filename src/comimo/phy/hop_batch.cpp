#include "comimo/phy/hop_batch.h"

#include "comimo/common/error.h"

namespace comimo {

void HopBatchWorkspace::configure_hop(const StbcCode& code, std::size_t mr,
                                      std::size_t w, std::size_t bpb) {
  COMIMO_CHECK(w >= 1, "need at least one lane");
  const std::size_t num_tx = code.num_tx();
  width = w;
  mt = num_tx;
  bits_per_block = bpb;
  belief_bits.resize(num_tx * w * bpb);
  decoded_all.resize(w * bpb);
  const std::size_t bc_elems = (num_tx - 1) * code.symbols_per_block() * w;
  bc_re.resize(bc_elems);
  bc_im.resize(bc_elems);
  bc_w1.resize(bc_elems);
  bc_w2.resize(bc_elems);
  bc_err.resize(bc_elems);
  bc_labels.resize(code.symbols_per_block() * w);
  // For the full code the sub-block is the whole block, so shaping the
  // link planes here makes the first long-haul pass allocation-free;
  // ladder-degraded sub-codes reshape (smaller, capacity reused) via
  // configure_long_haul.
  configure_long_haul(code, mr, w, bpb);
}

void HopBatchWorkspace::configure_long_haul(const StbcCode& code_use,
                                            std::size_t mr, std::size_t w,
                                            std::size_t sub_bits) {
  const std::size_t mt_use = code_use.num_tx();
  const std::size_t k_use = code_use.symbols_per_block();
  link.configure(code_use, mr, w, sub_bits);
  ant_sym_re.resize(mt_use * k_use * w);
  ant_sym_im.resize(mt_use * k_use * w);
  fwd_w1.resize(code_use.block_length() * mr * w);
  fwd_w2.resize(code_use.block_length() * mr * w);
}

}  // namespace comimo
