// Fixed-width Vec<double> backends for the batch-SoA kernels.
//
// Each struct wraps one native vector register of W doubles behind the
// minimal op set the generic kernels in batch_kernels_impl.h need:
// aligned load/store, broadcast, +, −, ×, ÷, √ (correctly rounded, as
// IEEE requires), |·| (sign bit cleared), strict-< and == lanewise
// selects, and three operations on the 64-bit pattern of each lane
// (logical right shift, and, or) with which the noise approximation
// takes raw RNG words apart.  Compares have the scalar
// operator's truth table, NaN included (false whenever an operand is
// NaN).  Only explicit single-op intrinsics are used — never an FMA —
// because the bit-identity contract (see simd.h) requires every lane to
// round exactly like the scalar code, one operation at a time.  The
// ISA-specific structs are only defined when the TU is compiled with
// the matching -m flag, so each backend TU sees exactly one of them.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

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
  static VecScalar sqrt(VecScalar a) noexcept { return {std::sqrt(a.v)}; }
  /// Logical right shift of the lane's 64-bit pattern by N.
  template <int N>
  static VecScalar shr_bits(VecScalar a) noexcept {
    return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) >> N)};
  }
  static VecScalar and_bits(VecScalar a, VecScalar b) noexcept {
    return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) &
                                  std::bit_cast<std::uint64_t>(b.v))};
  }
  static VecScalar or_bits(VecScalar a, VecScalar b) noexcept {
    return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) |
                                  std::bit_cast<std::uint64_t>(b.v))};
  }
  /// Lanewise (a < b) ? x : y — the strict-< first-minimum select the
  /// QAM argmin and the pivot search rely on.
  static VecScalar select_lt(VecScalar a, VecScalar b, VecScalar x,
                             VecScalar y) noexcept {
    return blend(a.v < b.v, x, y);
  }
  /// Lanewise (a == b) ? x : y — ±0 compare equal, NaN equals nothing.
  static VecScalar select_eq(VecScalar a, VecScalar b, VecScalar x,
                             VecScalar y) noexcept {
    return blend(a.v == b.v, x, y);
  }
  /// c ? x : y through a bit mask, without a branch: the noise
  /// approximation selects on random bits, where a branch mispredicts
  /// half the time.
  static VecScalar blend(bool c, VecScalar x, VecScalar y) noexcept {
    const std::uint64_t mask = std::uint64_t{0} - static_cast<std::uint64_t>(c);
    return {std::bit_cast<double>((std::bit_cast<std::uint64_t>(x.v) & mask) |
                                  (std::bit_cast<std::uint64_t>(y.v) & ~mask))};
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
  static VecSse2 sqrt(VecSse2 a) noexcept { return {_mm_sqrt_pd(a.v)}; }
  template <int N>
  static VecSse2 shr_bits(VecSse2 a) noexcept {
    return {_mm_castsi128_pd(_mm_srli_epi64(_mm_castpd_si128(a.v), N))};
  }
  static VecSse2 and_bits(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_and_pd(a.v, b.v)};
  }
  static VecSse2 or_bits(VecSse2 a, VecSse2 b) noexcept {
    return {_mm_or_pd(a.v, b.v)};
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
  static VecAvx2 sqrt(VecAvx2 a) noexcept { return {_mm256_sqrt_pd(a.v)}; }
  template <int N>
  static VecAvx2 shr_bits(VecAvx2 a) noexcept {
    return {_mm256_castsi256_pd(
        _mm256_srli_epi64(_mm256_castpd_si256(a.v), N))};
  }
  static VecAvx2 and_bits(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_and_pd(a.v, b.v)};
  }
  static VecAvx2 or_bits(VecAvx2 a, VecAvx2 b) noexcept {
    return {_mm256_or_pd(a.v, b.v)};
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
  // sqrt and the shift use the zero-masked forms with every lane
  // selected: the same instruction, without the undefined pass-through
  // operand GCC 12 warns about.  The bit operations run on the integer
  // view: _mm512_and_pd and _mm512_or_pd need AVX512DQ, the epi64 forms
  // only AVX512F.
  static VecAvx512 sqrt(VecAvx512 a) noexcept {
    return {_mm512_maskz_sqrt_pd(0xFF, a.v)};
  }
  template <int N>
  static VecAvx512 shr_bits(VecAvx512 a) noexcept {
    return {_mm512_castsi512_pd(
        _mm512_maskz_srli_epi64(0xFF, _mm512_castpd_si512(a.v), N))};
  }
  static VecAvx512 and_bits(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(a.v),
                                                 _mm512_castpd_si512(b.v)))};
  }
  static VecAvx512 or_bits(VecAvx512 a, VecAvx512 b) noexcept {
    return {_mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(a.v),
                                                _mm512_castpd_si512(b.v)))};
  }
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
  static VecNeon sqrt(VecNeon a) noexcept { return {vsqrtq_f64(a.v)}; }
  template <int N>
  static VecNeon shr_bits(VecNeon a) noexcept {
    return {vreinterpretq_f64_u64(vshrq_n_u64(vreinterpretq_u64_f64(a.v), N))};
  }
  static VecNeon and_bits(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_f64_u64(
        vandq_u64(vreinterpretq_u64_f64(a.v), vreinterpretq_u64_f64(b.v)))};
  }
  static VecNeon or_bits(VecNeon a, VecNeon b) noexcept {
    return {vreinterpretq_f64_u64(
        vorrq_u64(vreinterpretq_u64_f64(a.v), vreinterpretq_u64_f64(b.v)))};
  }
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
