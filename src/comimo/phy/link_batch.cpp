#include "comimo/phy/link_batch.h"

#include <algorithm>

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
  noise_w1.resize(tt * mr * w);
  noise_w2.resize(tt * mr * w);
  noise_err.resize(tt * mr * w);
  rho.resize(w);
  certified.resize(w);
  bits.resize(bits_per_block * w);
  decoded.resize(bits_per_block * w);
  symbols.reserve(kk);
}

DecisionEdges::DecisionEdges(const Modulator& modem) {
  if (modem.bits_per_symbol() == 1) {
    re.push_back(0.0);
    return;
  }
  // The grid's distinct levels per axis, then their midpoints.
  const auto mids = [&](auto part) {
    std::vector<double> levels;
    for (const cplx& p : modem.constellation()) levels.push_back(part(p));
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    std::vector<double> out;
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      out.push_back((levels[i] + levels[i + 1]) * 0.5);
    }
    return out;
  };
  re = mids([](const cplx& p) { return p.real(); });
  im = mids([](const cplx& p) { return p.imag(); });
}

void demap_batch(const simd::BatchKernels& k, const Modulator& modem,
                 const double* re, const double* im, std::size_t elems,
                 std::uint32_t* labels, std::uint8_t* decoded,
                 std::size_t lane_stride) {
  const std::size_t w_count = k.width;
  const int b = modem.bits_per_symbol();
  if (b == 1) {
    for (std::size_t w = 0; w < w_count; ++w) {
      std::uint8_t* dec_out = decoded + w * lane_stride;
      for (std::size_t s = 0; s < elems; ++s) {
        dec_out[s] = bpsk_hard_bit(re[s * w_count + w]);
      }
    }
    return;
  }
  const std::vector<cplx>& points = modem.constellation();
  k.qam_nearest(re, im, elems, points.data(), points.size(), labels);
  for (std::size_t w = 0; w < w_count; ++w) {
    std::uint8_t* dec_out = decoded + w * lane_stride;
    std::size_t pos = 0;
    for (std::size_t s = 0; s < elems; ++s) {
      const std::uint32_t label = labels[s * w_count + w];
      for (int bit = b - 1; bit >= 0; --bit) {
        dec_out[pos++] = static_cast<std::uint8_t>((label >> bit) & 1u);
      }
    }
  }
}

void decode_demap_batch(const simd::BatchKernels& k, const StbcCode& code,
                        std::size_t mr, const Modulator& modem,
                        double sym_scale, LinkBatchWorkspace& ws,
                        std::uint8_t* decoded, std::size_t lane_stride,
                        const DecisionEdges* edges) {
  const std::size_t w_count = k.width;
  const std::size_t kk = code.symbols_per_block();
  const std::size_t rows = 2 * code.block_length() * mr;
  const std::size_t cols = 2 * kk;
  COMIMO_DCHECK(w_count <= ws.width && ws.f.size() >= rows * cols * w_count,
                "pass wider than the configured planes");

  k.stbc_build_fy(code.coeff_a_flat().data(), code.coeff_b_flat().data(),
                  code.block_length(), code.num_tx(), kk, mr,
                  code.power_scale(), ws.h_re.data(), ws.h_im.data(),
                  ws.rx_re.data(), ws.rx_im.data(), ws.f.data(), ws.y.data());
  k.gram_rhs(ws.f.data(), ws.y.data(), rows, cols, ws.gram.data(),
             ws.rhs.data());
  if (edges != nullptr) {
    // The gram is the same in both chains (H is exact); the solve
    // overwrites it, so its bounds are taken first.
    k.cert_radius(ws.gram.data(), cols, ws.y.data(), rows,
                  ws.noise_err.data(), code.block_length() * mr, sym_scale,
                  ws.rho.data());
  }
  if (!k.solve_normal(ws.gram.data(), ws.rhs.data(), cols)) {
    throw NumericError("singular matrix in solve");
  }
  // x = [Re s_0, Im s_0, …]: even elements are the real planes.
  for (std::size_t s = 0; s < kk; ++s) {
    std::copy_n(ws.rhs.data() + 2 * s * w_count, w_count,
                ws.est_re.data() + s * w_count);
    std::copy_n(ws.rhs.data() + (2 * s + 1) * w_count, w_count,
                ws.est_im.data() + s * w_count);
  }
  k.divide(ws.est_re.data(), ws.est_im.data(), kk, sym_scale);
  if (edges != nullptr) {
    k.cert_margin(ws.est_re.data(), ws.est_im.data(), kk, ws.rho.data(), 0,
                  edges->re.data(), edges->re.size(), edges->im.data(),
                  edges->im.size(), ws.certified.data());
  }
  demap_batch(k, modem, ws.est_re.data(), ws.est_im.data(), kk,
              ws.labels.data(), decoded, lane_stride);
}

}  // namespace comimo
