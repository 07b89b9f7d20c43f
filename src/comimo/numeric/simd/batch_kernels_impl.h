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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "comimo/numeric/rng.h"
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

// Box–Muller of each element's two raw words without libm — the
// approximation whose error bound rng.h derives next to box_muller.
// One operation order and no FMA, so every tier computes the same bits.
// Words arrive as bit patterns in double planes; integer fields come
// out exactly through the 2⁵² trick: or-ing a value below 2⁵² into the
// mantissa of 2⁵² and subtracting 2⁵² leaves that value as a double.
template <class V>
void add_noise_approx_batch(const double* w1, const double* w2,
                            std::size_t elems, double sigma, double gain,
                            double* re, double* im, double* err) {
  constexpr std::size_t W = V::kWidth;
  const V zero = V::zero();
  const V one = V::broadcast(1.0);
  const V minus_one = V::broadcast(-1.0);
  const V two52 = V::broadcast(0x1.0p52);
  const V low_bit = V::broadcast(std::bit_cast<double>(std::uint64_t{1}));
  const V frac50 = V::broadcast(
      std::bit_cast<double>((std::uint64_t{1} << 50) - 1));
  const V mant52 = V::broadcast(
      std::bit_cast<double>((std::uint64_t{1} << 52) - 1));
  const V sqrt2 = V::broadcast(1.4142135623730951);
  const V sig = V::broadcast(sigma);
  const V gn = V::broadcast(gain);
  for (std::size_t e = 0; e < elems; ++e) {
    const std::size_t i = e * W;
    const V a = V::load(w1 + i);
    const V b = V::load(w2 + i);
    // u1 = 1 − (w1 >> 11)·2⁻⁵³, box_muller's own value: the 53-bit
    // integer is its top 52 bits doubled plus its lowest bit.
    const V hi = V::or_bits(V::template shr_bits<12>(a), two52) - two52;
    const V lo =
        V::or_bits(V::and_bits(V::template shr_bits<11>(a), low_bit), two52) -
        two52;
    const V u1 = one - (hi + hi + lo) * V::broadcast(0x1.0p-53);
    // u1 = m·2^E with m in [√½, √2): split the exponent field off, then
    // halve mantissas above √2.
    const V biased =
        V::or_bits(V::template shr_bits<52>(u1), two52) - two52;
    const V m0 = V::or_bits(V::and_bits(u1, mant52), one);
    const V m = V::select_lt(sqrt2, m0, m0 * V::broadcast(0.5), m0);
    const V ex = (biased - V::broadcast(1023.0)) +
                 V::select_lt(sqrt2, m0, one, zero);
    // ln m = 2·atanh(s), s = (m − 1)/(m + 1), |s| ≤ 3 − 2√2: six terms.
    const V s = (m - one) / (m + one);
    const V z = s * s;
    V p = V::broadcast(1.0 / 11.0);
    p = p * z + V::broadcast(1.0 / 9.0);
    p = p * z + V::broadcast(1.0 / 7.0);
    p = p * z + V::broadcast(1.0 / 5.0);
    p = p * z + V::broadcast(1.0 / 3.0);
    p = p * z + one;
    const V ln_u1 = ex * V::broadcast(0.6931471805599453) + (s + s) * p;
    const V r = V::sqrt(ln_u1 * V::broadcast(-2.0));
    // θ = 2π·u2 = (π/4)·(octant + f): the octant is w2's top three bits,
    // f the next 50.  Odd octants reflect, x = (π/4)·(1 − f), so both
    // polynomials only see x in [0, π/4].
    const V odd =
        V::or_bits(V::and_bits(V::template shr_bits<61>(b), low_bit), two52) -
        two52;
    const V b1 =
        V::or_bits(V::and_bits(V::template shr_bits<62>(b), low_bit), two52) -
        two52;
    const V b2 = V::or_bits(V::template shr_bits<63>(b), two52) - two52;
    const V f =
        (V::or_bits(V::and_bits(V::template shr_bits<11>(b), frac50), two52) -
         two52) *
        V::broadcast(0x1.0p-50);
    const V x = V::select_eq(odd, one, one - f, f) *
                V::broadcast(0.78539816339744831);
    const V x2 = x * x;
    V sp = V::broadcast(-1.0 / 39916800.0);
    sp = sp * x2 + V::broadcast(1.0 / 362880.0);
    sp = sp * x2 + V::broadcast(-1.0 / 5040.0);
    sp = sp * x2 + V::broadcast(1.0 / 120.0);
    sp = sp * x2 + V::broadcast(-1.0 / 6.0);
    sp = sp * x2 + one;
    const V sin_x = x * sp;
    V cp = V::broadcast(1.0 / 479001600.0);
    cp = cp * x2 + V::broadcast(-1.0 / 3628800.0);
    cp = cp * x2 + V::broadcast(1.0 / 40320.0);
    cp = cp * x2 + V::broadcast(-1.0 / 720.0);
    cp = cp * x2 + V::broadcast(1.0 / 24.0);
    cp = cp * x2 + V::broadcast(-0.5);
    const V cos_x = cp * x2 + one;
    // Octant k = 4·b2 + 2·b1 + odd: cos and sin trade places when
    // exactly one of odd and b1 is set; cos is negative when exactly one
    // of b1 and b2 is, sin when b2 is.
    const V swap = odd + b1;
    const V c = V::select_eq(swap, one, sin_x, cos_x) *
                V::select_eq(b1 + b2, one, minus_one, one);
    const V sn = V::select_eq(swap, one, cos_x, sin_x) *
                 V::select_eq(b2, one, minus_one, one);
    // complex_gaussian's roundings: (r·cos θ)·σ, then the caller's gain.
    (V::load(re + i) + ((r * c) * sig) * gn).store(re + i);
    (V::load(im + i) + ((r * sn) * sig) * gn).store(im + i);
    (V::load(err + i) +
     (((r * sig) * gn) * V::broadcast(kBoxMullerApproxRelErr) +
      V::broadcast(0x1.0p-1000)))
        .store(err + i);
  }
}

// Each lane's certificate radius before the solve overwrites the gram:
// with Gershgorin bounds λ₋ ≤ λ_min and λ₊ ≥ λ_max of the computed gram
// (less and plus a rounding allowance), the estimate of a chain whose
// received samples differ by δ moves by at most ‖δ‖·√λ₊/λ₋, then
// divides by sym_scale.  The 2⁻³⁰‖y‖ and 2⁻⁹⁰⁰ terms are the two
// chains' rounding (DESIGN.md §10).  A lane without 0 < λ₋ < ∞ gets +∞,
// and NaN anywhere stays NaN: either fails every margin.
template <class V>
void cert_radius_batch(const double* gram, std::size_t n, const double* y,
                       std::size_t rows, const double* err,
                       std::size_t err_elems, double sym_scale, double* rho) {
  constexpr std::size_t W = V::kWidth;
  const V zero = V::zero();
  const V inf = V::broadcast(std::numeric_limits<double>::infinity());
  V lam_lo = inf;
  V lam_hi = zero;
  V total = zero;
  for (std::size_t i = 0; i < n; ++i) {
    V off = zero;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) off = off + V::abs(V::load(gram + (i * n + j) * W));
    }
    const V d = V::load(gram + (i * n + i) * W);
    const V lo = d - off;
    const V hi = d + off;
    lam_lo = V::select_lt(lo, lam_lo, lo, lam_lo);
    lam_hi = V::select_lt(lam_hi, hi, hi, lam_hi);
    // Any NaN or ∞ in the gram makes the total NaN or ∞, and λ₋ with it.
    total = total + (V::abs(d) + off);
  }
  const V slack = total * V::broadcast(0x1.0p-40);
  lam_lo = lam_lo - slack;
  lam_hi = lam_hi + slack + V::broadcast(0x1.0p-1000);
  V yy = zero;
  for (std::size_t r = 0; r < rows; ++r) {
    const V v = V::load(y + r * W);
    yy = yy + v * v;
  }
  V ee = zero;
  for (std::size_t e = 0; e < err_elems; ++e) {
    const V v = V::load(err + e * W);
    ee = ee + v * v;
  }
  const V spread = lam_hi / lam_lo;
  const V radius = ((V::sqrt(ee) + V::sqrt(yy) * V::broadcast(0x1.0p-30) *
                                       spread) *
                        V::sqrt(lam_hi) +
                    V::broadcast(0x1.0p-900)) /
                   lam_lo / V::broadcast(sym_scale);
  const V out = V::select_lt(zero, lam_lo, radius, inf);
  V::select_lt(lam_lo, inf, out, inf).store(rho);
}

// ok[w] = 1 when every element of lane w lies farther than its radius
// plus 2⁻³⁰·(1 + |re| + |im|)² from every edge of its own axis, else 0.
// The quadratic term covers the demap's own rounding (the QAM argmin
// compares rounded squared distances).  An axis without edges never
// limits the margin; NaN fails the compare.  `rho` holds one radius per
// lane (rho_stride 0) or one per element (rho_stride 1).
template <class V>
void cert_margin_batch(const double* re, const double* im,
                       std::size_t elems, const double* rho,
                       std::size_t rho_stride, const double* edges_re,
                       std::size_t n_re, const double* edges_im,
                       std::size_t n_im, double* ok) {
  constexpr std::size_t W = V::kWidth;
  const V one = V::broadcast(1.0);
  const V inf = V::broadcast(std::numeric_limits<double>::infinity());
  V good = one;
  for (std::size_t e = 0; e < elems; ++e) {
    const V vr = V::load(re + e * W);
    const V vi = V::load(im + e * W);
    V margin = inf;
    for (std::size_t j = 0; j < n_re; ++j) {
      const V d = V::abs(vr - V::broadcast(edges_re[j]));
      margin = V::select_lt(d, margin, d, margin);
    }
    for (std::size_t j = 0; j < n_im; ++j) {
      const V d = V::abs(vi - V::broadcast(edges_im[j]));
      margin = V::select_lt(d, margin, d, margin);
    }
    const V t = one + V::abs(vr) + V::abs(vi);
    const V thr = V::load(rho + e * rho_stride * W) +
                  t * t * V::broadcast(0x1.0p-30);
    good = V::select_lt(thr, margin, good, V::zero());
  }
  good.store(ok);
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
  k.add_noise_approx = &add_noise_approx_batch<V>;
  k.cert_radius = &cert_radius_batch<V>;
  k.cert_margin = &cert_margin_batch<V>;
  k.gf256_mul_add_row = &G::mul_add_row;
  k.gf256_mul_region = &G::mul_region;
  k.gf_region_xor = &G::xor_row;
  return k;
}

}  // namespace comimo::simd::detail
