// Fixed-width Vec<double> backends for the batch-SoA kernels.
//
// Each struct wraps one native vector register of W doubles behind the
// minimal op set the generic kernels in batch_kernels_impl.h need:
// aligned load/store, broadcast, +, −, ×, ÷, |·| (sign bit cleared),
// and strict-< and == lanewise selects.  Compares have the scalar
// operator's truth table, NaN included (false whenever an operand is
// NaN).  Only explicit single-op intrinsics are used — never an FMA —
// because the bit-identity contract (see simd.h) requires every lane to
// round exactly like the scalar code, one operation at a time.  The
// ISA-specific structs are only defined when the TU is compiled with
// the matching -m flag, so each backend TU sees exactly one of them.
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__SSE2__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) && defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace comimo::simd {

/// W = 1 reference backend: plain double arithmetic.  This is the
/// bit-identity baseline every wider backend must reproduce per lane,
/// and the tail/kill-switch path.
struct VecScalar {
  static constexpr std::size_t kWidth = 1;
  double v;

  static VecScalar zero() noexcept { return {0.0}; }
  static VecScalar broadcast(double x) noexcept { return {x}; }
  static VecScalar load(const double* p) noexcept { return {*p}; }
  void store(double* p) const noexcept { *p = v; }

  friend VecScalar operator+(VecScalar a, VecScalar b) noexcept {
    return {a.v + b.v};
  }
  friend VecScalar operator-(VecScalar a, VecScalar b) noexcept {
    return {a.v - b.v};
  }
  friend VecScalar operator*(VecScalar a, VecScalar b) noexcept {
    return {a.v * b.v};
  }
  friend VecScalar operator/(VecScalar a, VecScalar b) noexcept {
    return {a.v / b.v};
  }
  /// |a| with the sign bit cleared — exact, NaN stays NaN.
  static VecScalar abs(VecScalar a) noexcept { return {std::fabs(a.v)}; }
  /// Lanewise (a < b) ? x : y — the strict-< first-minimum select the
  /// QAM argmin and the pivot search rely on.
  static VecScalar select_lt(VecScalar a, VecScalar b, VecScalar x,
                             VecScalar y) noexcept {
    return {a.v < b.v ? x.v : y.v};
  }
  /// Lanewise (a == b) ? x : y — ±0 compare equal, NaN equals nothing.
  static VecScalar select_eq(VecScalar a, VecScalar b, VecScalar x,
                             VecScalar y) noexcept {
    return {a.v == b.v ? x.v : y.v};
  }
};

#if defined(__SSE2__)
/// W = 2, x86-64 baseline.  No blendv before SSE4.1, so select uses the
/// classic and/andnot/or mask dance (exact: masks are all-ones/zeros).
struct VecSse2 {
  static constexpr std::size_t kWidth = 2;
  __m128d v;

  static VecSse2 zero() noexcept { return {_mm_setzero_pd()}; }
  static VecSse2 broadcast(double x) noexcept { return {_mm_set1_pd(x)}; }
  static VecSse2 load(const double* p) noexcept { return {_mm_load_pd(p)}; }
  void store(double* p) const noexcept { _mm_store_pd(p, v); }

  friend VecSse2 operator+(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend VecSse2 operator-(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend VecSse2 operator*(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_mul_pd(a.v, b.v)};
  }
  friend VecSse2 operator/(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_div_pd(a.v, b.v)};
  }
  static VecSse2 abs(VecSse2 a) noexcept {
    return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
  }
  static VecSse2 select_lt(VecSse2 a, VecSse2 b, VecSse2 x,
                           VecSse2 y) noexcept {
    const __m128d mask = _mm_cmplt_pd(a.v, b.v);
    return {_mm_or_pd(_mm_and_pd(mask, x.v), _mm_andnot_pd(mask, y.v))};
  }
  static VecSse2 select_eq(VecSse2 a, VecSse2 b, VecSse2 x,
                           VecSse2 y) noexcept {
    const __m128d mask = _mm_cmpeq_pd(a.v, b.v);
    return {_mm_or_pd(_mm_and_pd(mask, x.v), _mm_andnot_pd(mask, y.v))};
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
/// W = 4.  _CMP_LT_OQ / _CMP_EQ_OQ are the ordered, non-signalling
/// compares — the scalar `<` / `==` truth tables, NaN included.  No FMA
/// intrinsics appear anywhere (AVX2 does not imply FMA, and contraction
/// is off in this TU).
struct VecAvx2 {
  static constexpr std::size_t kWidth = 4;
  __m256d v;

  static VecAvx2 zero() noexcept { return {_mm256_setzero_pd()}; }
  static VecAvx2 broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static VecAvx2 load(const double* p) noexcept {
    return {_mm256_load_pd(p)};
  }
  void store(double* p) const noexcept { _mm256_store_pd(p, v); }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_div_pd(a.v, b.v)};
  }
  static VecAvx2 abs(VecAvx2 a) noexcept {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  static VecAvx2 select_lt(VecAvx2 a, VecAvx2 b, VecAvx2 x,
                           VecAvx2 y) noexcept {
    const __m256d mask = _mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ);
    return {_mm256_blendv_pd(y.v, x.v, mask)};
  }
  static VecAvx2 select_eq(VecAvx2 a, VecAvx2 b, VecAvx2 x,
                           VecAvx2 y) noexcept {
    const __m256d mask = _mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ);
    return {_mm256_blendv_pd(y.v, x.v, mask)};
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
/// W = 8.  The AVX-512 compare writes a mask register, so select is the
/// mask-blend form; the ordered compares keep the scalar `<` / `==`
/// truth tables, NaN included.  As with AVX2, only explicit
/// mul/add/sub/div intrinsics appear — never an FMA.
struct VecAvx512 {
  static constexpr std::size_t kWidth = 8;
  __m512d v;

  static VecAvx512 zero() noexcept { return {_mm512_setzero_pd()}; }
  static VecAvx512 broadcast(double x) noexcept {
    return {_mm512_set1_pd(x)};
  }
  static VecAvx512 load(const double* p) noexcept {
    return {_mm512_load_pd(p)};
  }
  void store(double* p) const noexcept { _mm512_store_pd(p, v); }

  friend VecAvx512 operator+(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_add_pd(a.v, b.v)};
  }
  friend VecAvx512 operator-(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_sub_pd(a.v, b.v)};
  }
  friend VecAvx512 operator*(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_mul_pd(a.v, b.v)};
  }
  friend VecAvx512 operator/(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_div_pd(a.v, b.v)};
  }
  static VecAvx512 abs(VecAvx512 a) noexcept { return {_mm512_abs_pd(a.v)}; }
  static VecAvx512 select_lt(VecAvx512 a, VecAvx512 b, VecAvx512 x,
                             VecAvx512 y) noexcept {
    const __mmask8 mask = _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
    return {_mm512_mask_blend_pd(mask, y.v, x.v)};
  }
  static VecAvx512 select_eq(VecAvx512 a, VecAvx512 b, VecAvx512 x,
                             VecAvx512 y) noexcept {
    const __mmask8 mask = _mm512_cmp_pd_mask(a.v, b.v, _CMP_EQ_OQ);
    return {_mm512_mask_blend_pd(mask, y.v, x.v)};
  }
};
#endif  // __AVX512F__

#if defined(__ARM_NEON) && defined(__aarch64__)
/// W = 2 on aarch64 (NEON is baseline there, no extra -m flag needed).
struct VecNeon {
  static constexpr std::size_t kWidth = 2;
  float64x2_t v;

  static VecNeon zero() noexcept { return {vdupq_n_f64(0.0)}; }
  static VecNeon broadcast(double x) noexcept { return {vdupq_n_f64(x)}; }
  static VecNeon load(const double* p) noexcept { return {vld1q_f64(p)}; }
  void store(double* p) const noexcept { vst1q_f64(p, v); }

  friend VecNeon operator+(VecNeon a, VecNeon b) noexcept {
    return {vaddq_f64(a.v, b.v)};
  }
  friend VecNeon operator-(VecNeon a, VecNeon b) noexcept {
    return {vsubq_f64(a.v, b.v)};
  }
  friend VecNeon operator*(VecNeon a, VecNeon b) noexcept {
    return {vmulq_f64(a.v, b.v)};
  }
  friend VecNeon operator/(VecNeon a, VecNeon b) noexcept {
    return {vdivq_f64(a.v, b.v)};
  }
  static VecNeon abs(VecNeon a) noexcept { return {vabsq_f64(a.v)}; }
  static VecNeon select_lt(VecNeon a, VecNeon b, VecNeon x,
                           VecNeon y) noexcept {
    return {vbslq_f64(vcltq_f64(a.v, b.v), x.v, y.v)};
  }
  static VecNeon select_eq(VecNeon a, VecNeon b, VecNeon x,
                           VecNeon y) noexcept {
    return {vbslq_f64(vceqq_f64(a.v, b.v), x.v, y.v)};
  }
};
#endif  // __ARM_NEON && __aarch64__

}  // namespace comimo::simd
