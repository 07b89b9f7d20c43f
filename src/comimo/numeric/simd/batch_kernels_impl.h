// Generic batch-SoA kernel bodies, templated on a Vec backend.
//
// Included only by the per-ISA backend TUs (kernels_*.cpp), each of
// which instantiates make_kernels<V>() for its vector type.  Every
// kernel walks the same loop nest as its scalar counterpart
// (numeric/cmatrix.cpp, phy/stbc.cpp, phy/modulation.cpp) and expands
// complex arithmetic into the libstdc++ finite-path formula with one
// vector op per scalar rounding — the whole bit-identity argument lives
// in these bodies, so any edit here must preserve the op-for-op
// correspondence the comments call out.
//
// Complex product (matches std::complex<double> operator* for the
// finite values the link kernels produce):
//   re = (ar·br) − (ai·bi)        im = (ar·bi) + (ai·br)
// Conjugated product b·conj(s) (sign folds are exact in IEEE):
//   re = (br·sr) + (bi·si)        im = (bi·sr) − (br·si)
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "comimo/numeric/simd/gf_kernels_impl.h"
#include "comimo/numeric/simd/simd.h"
#include "comimo/numeric/simd/vec.h"

namespace comimo::simd::detail {

template <class V>
void multiply_batch(const double* a_re, const double* a_im,
                    const double* b_re, const double* b_im, double* out_re,
                    double* out_im, std::size_t a_rows, std::size_t a_cols,
                    std::size_t b_cols) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t r = 0; r < a_rows; ++r) {
    for (std::size_t c = 0; c < b_cols; ++c) {
      V sum_re = V::zero();
      V sum_im = V::zero();
      for (std::size_t k = 0; k < a_cols; ++k) {
        const std::size_t ai = (r * a_cols + k) * W;
        const std::size_t bi = (k * b_cols + c) * W;
        const V ar = V::load(a_re + ai);
        const V aim = V::load(a_im + ai);
        const V br = V::load(b_re + bi);
        const V bim = V::load(b_im + bi);
        // sum += a(r,k)·b(k,c): product first (one rounding per mul and
        // per ±), then the accumulate — the scalar `sum += a*b` order.
        sum_re = sum_re + (ar * br - aim * bim);
        sum_im = sum_im + (ar * bim + aim * br);
      }
      const std::size_t oi = (r * b_cols + c) * W;
      sum_re.store(out_re + oi);
      sum_im.store(out_im + oi);
    }
  }
}

template <class V>
void multiply_transposed_batch(const double* a_re, const double* a_im,
                               const double* b_re, const double* b_im,
                               double* out_re, double* out_im,
                               std::size_t a_rows, std::size_t a_cols,
                               std::size_t b_rows) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t r = 0; r < a_rows; ++r) {
    for (std::size_t c = 0; c < b_rows; ++c) {
      V sum_re = V::zero();
      V sum_im = V::zero();
      for (std::size_t k = 0; k < a_cols; ++k) {
        const std::size_t ai = (r * a_cols + k) * W;
        const std::size_t bi = (c * a_cols + k) * W;
        const V ar = V::load(a_re + ai);
        const V aim = V::load(a_im + ai);
        const V br = V::load(b_re + bi);
        const V bim = V::load(b_im + bi);
        sum_re = sum_re + (ar * br - aim * bim);
        sum_im = sum_im + (ar * bim + aim * br);
      }
      const std::size_t oi = (r * b_rows + c) * W;
      sum_re.store(out_re + oi);
      sum_im.store(out_im + oi);
    }
  }
}

template <class V>
void scale_batch(double* re, double* im, std::size_t elems, double s) {
  constexpr std::size_t W = V::kWidth;
  const V vs = V::broadcast(s);
  for (std::size_t e = 0; e < elems; ++e) {
    (V::load(re + e * W) * vs).store(re + e * W);
    (V::load(im + e * W) * vs).store(im + e * W);
  }
}

template <class V>
void divide_batch(double* re, double* im, std::size_t elems, double s) {
  constexpr std::size_t W = V::kWidth;
  const V vs = V::broadcast(s);
  for (std::size_t e = 0; e < elems; ++e) {
    (V::load(re + e * W) / vs).store(re + e * W);
    (V::load(im + e * W) / vs).store(im + e * W);
  }
}

template <class V>
void stbc_encode_batch(const cplx* a, const cplx* b, std::size_t t,
                       std::size_t mt, std::size_t k, double power_scale,
                       const double* sym_re, const double* sym_im,
                       double* out_re, double* out_im) {
  constexpr std::size_t W = V::kWidth;
  const V ps = V::broadcast(power_scale);
  for (std::size_t tt = 0; tt < t; ++tt) {
    for (std::size_t i = 0; i < mt; ++i) {
      V v_re = V::zero();
      V v_im = V::zero();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::size_t ci = (tt * mt + i) * k + kk;
        const V ar = V::broadcast(a[ci].real());
        const V aim = V::broadcast(a[ci].imag());
        const V br = V::broadcast(b[ci].real());
        const V bim = V::broadcast(b[ci].imag());
        const V sr = V::load(sym_re + kk * W);
        const V si = V::load(sym_im + kk * W);
        // a·s + b·conj(s), then v += — the scalar expression tree.
        const V p1_re = ar * sr - aim * si;
        const V p1_im = ar * si + aim * sr;
        const V p2_re = br * sr + bim * si;
        const V p2_im = bim * sr - br * si;
        v_re = v_re + (p1_re + p2_re);
        v_im = v_im + (p1_im + p2_im);
      }
      const std::size_t oi = (tt * mt + i) * W;
      (v_re * ps).store(out_re + oi);
      (v_im * ps).store(out_im + oi);
    }
  }
}

template <class V>
void stbc_encode_multi_batch(const cplx* a, const cplx* b, std::size_t t,
                             std::size_t mt, std::size_t k,
                             double power_scale, const double* sym_re,
                             const double* sym_im, double* out_re,
                             double* out_im) {
  constexpr std::size_t W = V::kWidth;
  const V ps = V::broadcast(power_scale);
  for (std::size_t tt = 0; tt < t; ++tt) {
    for (std::size_t i = 0; i < mt; ++i) {
      V v_re = V::zero();
      V v_im = V::zero();
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::size_t ci = (tt * mt + i) * k + kk;
        const V ar = V::broadcast(a[ci].real());
        const V aim = V::broadcast(a[ci].imag());
        const V br = V::broadcast(b[ci].real());
        const V bim = V::broadcast(b[ci].imag());
        // The only difference from stbc_encode_batch: antenna i reads
        // its own symbol plane (the hop's per-antenna beliefs).
        const V sr = V::load(sym_re + (i * k + kk) * W);
        const V si = V::load(sym_im + (i * k + kk) * W);
        const V p1_re = ar * sr - aim * si;
        const V p1_im = ar * si + aim * sr;
        const V p2_re = br * sr + bim * si;
        const V p2_im = bim * sr - br * si;
        v_re = v_re + (p1_re + p2_re);
        v_im = v_im + (p1_im + p2_im);
      }
      const std::size_t oi = (tt * mt + i) * W;
      (v_re * ps).store(out_re + oi);
      (v_im * ps).store(out_im + oi);
    }
  }
}

template <class V>
void stbc_build_fy_batch(const cplx* a, const cplx* b, std::size_t t,
                         std::size_t mt, std::size_t k, std::size_t mr,
                         double power_scale, const double* h_re,
                         const double* h_im, const double* rx_re,
                         const double* rx_im, double* f, double* y) {
  constexpr std::size_t W = V::kWidth;
  const std::size_t cols = 2 * k;
  const V ps = V::broadcast(power_scale);
  for (std::size_t tt = 0; tt < t; ++tt) {
    for (std::size_t j = 0; j < mr; ++j) {
      const std::size_t row_re = 2 * (tt * mr + j);
      const std::size_t row_im = row_re + 1;
      const std::size_t ri = (tt * mr + j) * W;
      V::load(rx_re + ri).store(y + row_re * W);
      V::load(rx_im + ri).store(y + row_im * W);
      for (std::size_t kk = 0; kk < k; ++kk) {
        V alpha_re = V::zero();
        V alpha_im = V::zero();
        V beta_re = V::zero();
        V beta_im = V::zero();
        for (std::size_t i = 0; i < mt; ++i) {
          const std::size_t ci = (tt * mt + i) * k + kk;
          const std::size_t hi = (j * mt + i) * W;
          const V hr = V::load(h_re + hi);
          const V him = V::load(h_im + hi);
          const V ar = V::broadcast(a[ci].real());
          const V aim = V::broadcast(a[ci].imag());
          alpha_re = alpha_re + (ar * hr - aim * him);
          alpha_im = alpha_im + (ar * him + aim * hr);
          const V br = V::broadcast(b[ci].real());
          const V bim = V::broadcast(b[ci].imag());
          beta_re = beta_re + (br * hr - bim * him);
          beta_im = beta_im + (br * him + bim * hr);
        }
        alpha_re = alpha_re * ps;
        alpha_im = alpha_im * ps;
        beta_re = beta_re * ps;
        beta_im = beta_im * ps;
        // r = alpha·s + beta·conj(s) in the real expansion; the scalar
        // `-alpha.imag() + beta.imag()` is the exact IEEE equivalent of
        // beta_im − alpha_im.
        (alpha_re + beta_re).store(f + (row_re * cols + 2 * kk) * W);
        (beta_im - alpha_im).store(f + (row_re * cols + 2 * kk + 1) * W);
        (alpha_im + beta_im).store(f + (row_im * cols + 2 * kk) * W);
        (alpha_re - beta_re).store(f + (row_im * cols + 2 * kk + 1) * W);
      }
    }
  }
}

template <class V>
void gram_rhs_batch(const double* f, const double* y, std::size_t rows,
                    std::size_t cols, double* gram, double* rhs) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t c1 = 0; c1 < cols; ++c1) {
    for (std::size_t c2 = c1; c2 < cols; ++c2) {
      V dot = V::zero();
      for (std::size_t r = 0; r < rows; ++r) {
        dot = dot + V::load(f + (r * cols + c1) * W) *
                        V::load(f + (r * cols + c2) * W);
      }
      dot.store(gram + (c1 * cols + c2) * W);
      dot.store(gram + (c2 * cols + c1) * W);
    }
    V dot_y = V::zero();
    for (std::size_t r = 0; r < rows; ++r) {
      dot_y = dot_y + V::load(f + (r * cols + c1) * W) * V::load(y + r * W);
    }
    dot_y.store(rhs + c1 * W);
  }
}

// CMatrix::solve_into on real systems, op for op: partial pivoting with
// a strict-> first-maximum search, row swaps, `f == 0` rows skipped,
// back substitution.  On real input the complex path's imaginary parts
// stay ±0, so |z| is |re| and every quotient is the correctly rounded
// real one; only the sign of an exact zero can differ, and no zero is
// ever a divisor here.  Entries below the diagonal are dead once their
// column is eliminated, so they are neither swapped nor zeroed.
template <class V>
bool solve_normal_batch(double* a, double* x, std::size_t n) {
  constexpr std::size_t W = V::kWidth;
  const V zero = V::zero();
  alignas(64) double lane_best[W];
  alignas(64) double lane_mag[W];
  for (std::size_t col = 0; col < n; ++col) {
    // Row indices ride as doubles so they share the magnitude's mask.
    V best = V::broadcast(static_cast<double>(col));
    V best_mag = V::abs(V::load(a + (col * n + col) * W));
    for (std::size_t r = col + 1; r < n; ++r) {
      const V mag = V::abs(V::load(a + (r * n + col) * W));
      best = V::select_lt(best_mag, mag, V::broadcast(static_cast<double>(r)),
                          best);
      best_mag = V::select_lt(best_mag, mag, mag, best_mag);
    }
    best.store(lane_best);
    best_mag.store(lane_mag);
    bool any_swap = false;
    for (std::size_t w = 0; w < W; ++w) {
      if (lane_mag[w] == 0.0) return false;
      any_swap = any_swap || lane_best[w] != static_cast<double>(col);
    }
    if (any_swap) {
      // Each lane exchanges row col with its own pivot row; lanes whose
      // pivot is already on the diagonal keep both rows.
      for (std::size_t r = col + 1; r < n; ++r) {
        const V rv = V::broadcast(static_cast<double>(r));
        for (std::size_t c = col; c < n; ++c) {
          const V top = V::load(a + (col * n + c) * W);
          const V low = V::load(a + (r * n + c) * W);
          V::select_eq(best, rv, low, top).store(a + (col * n + c) * W);
          V::select_eq(best, rv, top, low).store(a + (r * n + c) * W);
        }
        const V top = V::load(x + col * W);
        const V low = V::load(x + r * W);
        V::select_eq(best, rv, low, top).store(x + col * W);
        V::select_eq(best, rv, top, low).store(x + r * W);
      }
    }
    const V pivot = V::load(a + (col * n + col) * W);
    const V x_col = V::load(x + col * W);
    for (std::size_t r = col + 1; r < n; ++r) {
      const V f = V::load(a + (r * n + col) * W) / pivot;
      // Lanes with f == 0 keep the row as it was: the scalar `continue`.
      for (std::size_t c = col + 1; c < n; ++c) {
        const V old = V::load(a + (r * n + c) * W);
        V::select_eq(f, zero, old, old - f * V::load(a + (col * n + c) * W))
            .store(a + (r * n + c) * W);
      }
      const V old = V::load(x + r * W);
      V::select_eq(f, zero, old, old - f * x_col).store(x + r * W);
    }
  }
  for (std::size_t ri = n; ri-- > 0;) {
    V sum = V::load(x + ri * W);
    for (std::size_t c = ri + 1; c < n; ++c) {
      sum = sum - V::load(a + (ri * n + c) * W) * V::load(x + c * W);
    }
    (sum / V::load(a + (ri * n + ri) * W)).store(x + ri * W);
  }
  return true;
}

template <class V>
void qam_nearest_batch(const double* sym_re, const double* sym_im,
                       std::size_t elems, const cplx* points,
                       std::size_t n_points, std::uint32_t* labels) {
  constexpr std::size_t W = V::kWidth;
  for (std::size_t e = 0; e < elems; ++e) {
    const V rr = V::load(sym_re + e * W);
    const V ri = V::load(sym_im + e * W);
    V best_d = V::broadcast(std::numeric_limits<double>::infinity());
    // Indices tracked as doubles so the winning lane rides the same
    // select mask as its distance; constellation sizes (≤256) are exact.
    V best_i = V::zero();
    for (std::size_t i = 0; i < n_points; ++i) {
      const V dre = rr - V::broadcast(points[i].real());
      const V dim = ri - V::broadcast(points[i].imag());
      const V d = dre * dre + dim * dim;
      // Strict < with first-minimum tie-break: update the index with the
      // *old* best_d mask, then the distance — exactly the scalar argmin.
      best_i = V::select_lt(d, best_d, V::broadcast(static_cast<double>(i)),
                            best_i);
      best_d = V::select_lt(d, best_d, d, best_d);
    }
    alignas(64) double idx[W];
    best_i.store(idx);
    for (std::size_t w = 0; w < W; ++w) {
      labels[e * W + w] = static_cast<std::uint32_t>(idx[w]);
    }
  }
}

// G supplies the byte-region GF(256) kernels (gf_kernels_impl.h); it is
// a separate backend type because those operate on byte streams, not
// W-lane double planes — the tier pairing (VecAvx2 ↔ GfAvx2, …) is
// fixed in each backend TU.
template <class V, class G>
[[nodiscard]] BatchKernels make_kernels(Tier tier) noexcept {
  BatchKernels k;
  k.tier = tier;
  k.width = V::kWidth;
  k.multiply = &multiply_batch<V>;
  k.multiply_transposed = &multiply_transposed_batch<V>;
  k.scale = &scale_batch<V>;
  k.divide = &divide_batch<V>;
  k.stbc_encode = &stbc_encode_batch<V>;
  k.stbc_encode_multi = &stbc_encode_multi_batch<V>;
  k.stbc_build_fy = &stbc_build_fy_batch<V>;
  k.gram_rhs = &gram_rhs_batch<V>;
  k.solve_normal = &solve_normal_batch<V>;
  k.qam_nearest = &qam_nearest_batch<V>;
  k.gf256_mul_add_row = &G::mul_add_row;
  k.gf256_mul_region = &G::mul_region;
  k.gf_region_xor = &G::xor_row;
  return k;
}

}  // namespace comimo::simd::detail
