#include "comimo/phy/stbc.h"

#include <cmath>

#include "comimo/common/error.h"
#include "comimo/numeric/rng.h"
#include "comimo/numeric/simd/simd.h"

namespace comimo {

StbcCode::StbcCode(std::size_t num_tx, std::size_t t, std::size_t k)
    : num_tx_(num_tx),
      t_(t),
      k_(k),
      power_scale_(1.0 / std::sqrt(static_cast<double>(num_tx))),
      a_(t * num_tx * k, cplx{0.0, 0.0}),
      b_(t * num_tx * k, cplx{0.0, 0.0}) {}

void StbcCode::set_a(std::size_t t, std::size_t i, std::size_t k, cplx v) {
  a_[idx(t, i, k)] = v;
}
void StbcCode::set_b(std::size_t t, std::size_t i, std::size_t k, cplx v) {
  b_[idx(t, i, k)] = v;
}

cplx StbcCode::coeff_a(std::size_t t, std::size_t i, std::size_t k) const {
  COMIMO_DCHECK(t < t_ && i < num_tx_ && k < k_, "coeff index out of range");
  return a_[idx(t, i, k)];
}
cplx StbcCode::coeff_b(std::size_t t, std::size_t i, std::size_t k) const {
  COMIMO_DCHECK(t < t_ && i < num_tx_ && k < k_, "coeff index out of range");
  return b_[idx(t, i, k)];
}

StbcCode StbcCode::siso() {
  StbcCode c(1, 1, 1);
  c.set_a(0, 0, 0, 1.0);
  return c;
}

StbcCode StbcCode::alamouti() {
  //  time 0: [ s1   s2 ]
  //  time 1: [-s2*  s1*]
  StbcCode c(2, 2, 2);
  c.set_a(0, 0, 0, 1.0);
  c.set_a(0, 1, 1, 1.0);
  c.set_b(1, 0, 1, -1.0);
  c.set_b(1, 1, 0, 1.0);
  return c;
}

namespace {
// Sign pattern of the rate-1/2 real block used by G3/G4 (Tarokh et al.,
// "Space-time block codes from orthogonal designs", 1999): rows are time
// slots, columns antennas; entry (t,i) is ±s_{perm} with
// value v = sign · symbol index.
struct Entry {
  int symbol;  // 1-based symbol index
  int sign;
};
constexpr Entry kG4Top[4][4] = {
    {{1, +1}, {2, +1}, {3, +1}, {4, +1}},
    {{2, -1}, {1, +1}, {4, -1}, {3, +1}},
    {{3, -1}, {4, +1}, {1, +1}, {2, -1}},
    {{4, -1}, {3, -1}, {2, +1}, {1, +1}},
};
}  // namespace

StbcCode StbcCode::g3() {
  StbcCode c(3, 8, 4);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < 3; ++i) {
      const Entry e = kG4Top[t][i];
      const auto k = static_cast<std::size_t>(e.symbol - 1);
      c.set_a(t, i, k, static_cast<double>(e.sign));
      c.set_b(t + 4, i, k, static_cast<double>(e.sign));
    }
  }
  return c;
}

StbcCode StbcCode::g4() {
  StbcCode c(4, 8, 4);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < 4; ++i) {
      const Entry e = kG4Top[t][i];
      const auto k = static_cast<std::size_t>(e.symbol - 1);
      c.set_a(t, i, k, static_cast<double>(e.sign));
      c.set_b(t + 4, i, k, static_cast<double>(e.sign));
    }
  }
  return c;
}

StbcCode StbcCode::for_antennas(std::size_t num_tx) {
  switch (num_tx) {
    case 1:
      return siso();
    case 2:
      return alamouti();
    case 3:
      return g3();
    case 4:
      return g4();
    default:
      throw InvalidArgument("StbcCode::for_antennas supports 1..4 antennas");
  }
}

CMatrix StbcCode::encode(std::span<const cplx> symbols) const {
  COMIMO_CHECK(symbols.size() == k_, "encode needs exactly K symbols");
  CMatrix out(t_, num_tx_);
  encode_into(symbols, out);
  return out;
}

void StbcCode::encode_into(std::span<const cplx> symbols,
                           CMatrixView out) const {
  COMIMO_DCHECK(symbols.size() == k_, "encode needs exactly K symbols");
  COMIMO_DCHECK(out.rows() == t_ && out.cols() == num_tx_,
                "encode_into output must be T × num_tx");
  for (std::size_t t = 0; t < t_; ++t) {
    for (std::size_t i = 0; i < num_tx_; ++i) {
      cplx v{0.0, 0.0};
      for (std::size_t k = 0; k < k_; ++k) {
        v += a_[idx(t, i, k)] * symbols[k] +
             b_[idx(t, i, k)] * std::conj(symbols[k]);
      }
      out(t, i) = v * power_scale_;
    }
  }
}

double StbcCode::symbol_weight() const {
  double weight = 0.0;
  for (std::size_t t = 0; t < t_; ++t) {
    weight += std::norm(a_[idx(t, 0, 0)]) + std::norm(b_[idx(t, 0, 0)]);
  }
  return weight;
}

bool StbcCode::is_orthogonal_design(double tol) const {
  // C^H C must equal power_scale²·w·(Σ|s_k|²)·I for all symbol vectors,
  // with w = symbol_weight().  Checking a few random draws is
  // sufficient for a fixed linear design.
  const double weight = symbol_weight();
  Rng rng(0xC0DE5EEDULL);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<cplx> s(k_);
    double energy = 0.0;
    for (auto& v : s) {
      v = rng.complex_gaussian(1.0);
      energy += std::norm(v);
    }
    const CMatrix c = encode(s);
    const CMatrix gram = c.hermitian() * c;
    const double diag = power_scale_ * power_scale_ * weight * energy;
    for (std::size_t r = 0; r < num_tx_; ++r) {
      for (std::size_t cc = 0; cc < num_tx_; ++cc) {
        const cplx expected = (r == cc) ? cplx{diag, 0.0} : cplx{0.0, 0.0};
        if (std::abs(gram(r, cc) - expected) > tol * std::max(1.0, diag)) {
          return false;
        }
      }
    }
  }
  return true;
}

StbcDecoder::StbcDecoder(StbcCode code) : code_(std::move(code)) {}

std::vector<cplx> StbcDecoder::decode(const CMatrix& h,
                                      const CMatrix& received) const {
  const std::size_t mt = code_.num_tx();
  const std::size_t tt = code_.block_length();
  const std::size_t kk = code_.symbols_per_block();
  COMIMO_CHECK(h.cols() == mt, "channel must have num_tx columns");
  COMIMO_CHECK(received.rows() == tt, "received block length mismatch");
  COMIMO_CHECK(received.cols() == h.rows(), "received antennas mismatch");
  StbcDecodeScratch scratch;
  std::vector<cplx> symbols(kk);
  decode_into(h, received, symbols, scratch);
  return symbols;
}

void StbcDecoder::decode_into(ConstCMatrixView h, ConstCMatrixView received,
                              std::span<cplx> out_symbols,
                              StbcDecodeScratch& scratch) const {
  const std::size_t mt = code_.num_tx();
  const std::size_t tt = code_.block_length();
  const std::size_t kk = code_.symbols_per_block();
  COMIMO_DCHECK(h.cols() == mt, "channel must have num_tx columns");
  COMIMO_DCHECK(received.rows() == tt, "received block length mismatch");
  COMIMO_DCHECK(received.cols() == h.rows(), "received antennas mismatch");
  COMIMO_DCHECK(out_symbols.size() == kk, "decode_into needs K output slots");
  const std::size_t mr = h.rows();
  const double ps = code_.power_scale();

  // Real expansion: y = F x + n with x = [Re s_0, Im s_0, ...].
  const std::size_t rows = 2 * tt * mr;
  const std::size_t cols = 2 * kk;
  std::vector<double>& f = scratch.f;
  std::vector<double>& y = scratch.y;
  f.resize(rows * cols);
  y.resize(rows);
  for (std::size_t t = 0; t < tt; ++t) {
    for (std::size_t j = 0; j < mr; ++j) {
      const std::size_t row_re = 2 * (t * mr + j);
      const std::size_t row_im = row_re + 1;
      y[row_re] = received(t, j).real();
      y[row_im] = received(t, j).imag();
      for (std::size_t k = 0; k < kk; ++k) {
        cplx alpha{0.0, 0.0};
        cplx beta{0.0, 0.0};
        for (std::size_t i = 0; i < mt; ++i) {
          alpha += code_.coeff_a(t, i, k) * h(j, i);
          beta += code_.coeff_b(t, i, k) * h(j, i);
        }
        alpha *= ps;
        beta *= ps;
        // r = alpha·s + beta·conj(s)
        f[row_re * cols + 2 * k] = alpha.real() + beta.real();
        f[row_re * cols + 2 * k + 1] = -alpha.imag() + beta.imag();
        f[row_im * cols + 2 * k] = alpha.imag() + beta.imag();
        f[row_im * cols + 2 * k + 1] = alpha.real() - beta.real();
      }
    }
  }

  // Normal equations (F^T F) x = F^T y; for orthogonal designs F^T F is
  // ps²‖H‖²_F·I but we solve generally for robustness.  The width-1
  // scalar kernels are the batch link's own bodies, so this decode and
  // every batch lane share one dot-product order and one solve.
  const simd::BatchKernels& scalar =
      *simd::kernels_for_tier(simd::Tier::kScalar);
  scratch.gram.resize(cols * cols);
  scratch.rhs.resize(cols);
  scalar.gram_rhs(f.data(), y.data(), rows, cols, scratch.gram.data(),
                  scratch.rhs.data());
  if (!scalar.solve_normal(scratch.gram.data(), scratch.rhs.data(), cols)) {
    throw NumericError("singular matrix in solve");
  }
  const std::vector<double>& x = scratch.rhs;

  for (std::size_t k = 0; k < kk; ++k) {
    out_symbols[k] = cplx{x[2 * k], x[2 * k + 1]};
  }
}

double StbcDecoder::combining_gain(const CMatrix& h) const {
  const double ps = code_.power_scale();
  return ps * ps * h.frobenius_norm2();
}

}  // namespace comimo
