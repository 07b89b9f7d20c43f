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
}

}  // namespace comimo
