#include "comimo/phy/link_batch.h"

#include "comimo/common/error.h"
#include "comimo/numeric/simd/simd.h"

namespace comimo {

void LinkBatchWorkspace::configure(const StbcCode& code, std::size_t mr,
                                   std::size_t w, std::size_t bits_per_block) {
  COMIMO_CHECK(w >= 1, "need at least one lane");
  COMIMO_CHECK(mr >= 1, "need a receive antenna");
  const std::size_t mt = code.num_tx();
  const std::size_t tt = code.block_length();
  const std::size_t kk = code.symbols_per_block();
  const std::size_t rows = 2 * tt * mr;
  const std::size_t cols = 2 * kk;
  width = w;
  h_re.resize(mr * mt * w);
  h_im.resize(mr * mt * w);
  enc_re.resize(tt * mt * w);
  enc_im.resize(tt * mt * w);
  rx_re.resize(tt * mr * w);
  rx_im.resize(tt * mr * w);
  sym_re.resize(kk * w);
  sym_im.resize(kk * w);
  est_re.resize(kk * w);
  est_im.resize(kk * w);
  f.resize(rows * cols * w);
  y.resize(rows * w);
  gram.resize(cols * cols * w);
  rhs.resize(cols * w);
  labels.resize(kk * w);
  bits.resize(bits_per_block * w);
  decoded.resize(bits_per_block * w);
  symbols.reserve(kk);
}

void decode_demap_batch(const simd::BatchKernels& k, const StbcCode& code,
                        std::size_t mr, const Modulator& modem,
                        double sym_scale, LinkBatchWorkspace& ws,
                        std::uint8_t* decoded, std::size_t lane_stride) {
  const std::size_t w_count = k.width;
  const std::size_t kk = code.symbols_per_block();
  const std::size_t rows = 2 * code.block_length() * mr;
  const std::size_t cols = 2 * kk;
  COMIMO_DCHECK(w_count <= ws.width && ws.f.size() >= rows * cols * w_count,
                "pass wider than the configured planes");

  // The F/y build and the normal-equation dot products are vectorized;
  // the pivoted solve is data-dependent per lane, so each lane's
  // gram/rhs is extracted and solved with the scalar eliminator.
  k.stbc_build_fy(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                  code.block_length(), code.num_tx(), kk, mr,
                  code.power_scale(), ws.h_re.data(), ws.h_im.data(),
                  ws.rx_re.data(), ws.rx_im.data(), ws.f.data(), ws.y.data());
  k.gram_rhs(ws.f.data(), ws.y.data(), rows, cols, ws.gram.data(),
             ws.rhs.data());
  StbcDecodeScratch& sc = ws.solve_scratch;
  for (std::size_t w = 0; w < w_count; ++w) {
    sc.gram.resize(cols, cols);
    sc.rhs.assign(cols, cplx{0.0, 0.0});
    for (std::size_t c1 = 0; c1 < cols; ++c1) {
      for (std::size_t c2 = 0; c2 < cols; ++c2) {
        sc.gram(c1, c2) = cplx{ws.gram[(c1 * cols + c2) * w_count + w], 0.0};
      }
      sc.rhs[c1] = cplx{ws.rhs[c1 * w_count + w], 0.0};
    }
    sc.gram.solve_into(sc.rhs, sc.x, sc.solve_work);
    for (std::size_t s = 0; s < kk; ++s) {
      ws.est_re[s * w_count + w] = sc.x[2 * s].real();
      ws.est_im[s * w_count + w] = sc.x[2 * s + 1].real();
    }
  }
  k.divide(ws.est_re.data(), ws.est_im.data(), kk, sym_scale);

  const int b = modem.bits_per_symbol();
  if (b == 1) {
    for (std::size_t w = 0; w < w_count; ++w) {
      std::uint8_t* dec_out = decoded + w * lane_stride;
      for (std::size_t s = 0; s < kk; ++s) {
        dec_out[s] = bpsk_hard_bit(ws.est_re[s * w_count + w]);
      }
    }
    return;
  }
  const std::vector<cplx>& points = modem.constellation();
  k.qam_nearest(ws.est_re.data(), ws.est_im.data(), kk, points.data(),
                points.size(), ws.labels.data());
  for (std::size_t w = 0; w < w_count; ++w) {
    std::uint8_t* dec_out = decoded + w * lane_stride;
    std::size_t pos = 0;
    for (std::size_t s = 0; s < kk; ++s) {
      const std::uint32_t label = ws.labels[s * w_count + w];
      for (int bit = b - 1; bit >= 0; --bit) {
        dec_out[pos++] = static_cast<std::uint8_t>((label >> bit) & 1u);
      }
    }
  }
}

}  // namespace comimo
