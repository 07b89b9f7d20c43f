// Batch-SoA SIMD kernels with runtime ISA dispatch.
//
// The PHY hot path spends its time on thousands of *independent*
// Monte-Carlo blocks, each a handful-of-antennas STBC link.  Matrices
// that small leave nothing to vectorize within a block, so this module
// vectorizes **across the batch**: W independent blocks travel together
// in split-complex SoA planes (layout [element][lane]: element e of
// lane w lives at plane[e * W + w]; planes are 64-byte aligned, see
// numeric/aligned.h) and every arithmetic kernel applies one vector op
// to W lanes at once.
//
// Bit-identity contract: each lane executes *exactly* the scalar
// kernel's operation sequence — complex products expand to the
// libstdc++ finite-path formula (re = ar·br − ai·bi, im = ar·bi + ai·br,
// one rounding per mul/add), accumulations run in the same ascending
// order, and the backends use explicit mul/add intrinsics only (no FMA,
// and the backend TUs compile with -ffp-contract=off so the compiler
// cannot introduce one).  A vector lane therefore produces the same
// bits as the scalar path at every ISA tier, which is what lets the
// golden-table net and the 1-vs-N-thread invariance checks pass
// unchanged with batching on.
//
// Dispatch: the best tier the CPU supports (AVX-512 W=8 > AVX2 W=4 >
// SSE2 W=2 on x86-64; NEON W=2 on aarch64; scalar W=1 anywhere) is
// detected once
// and pinned for the process lifetime on first use.  `--simd=<mode>`
// on the bench CLI (simd::set_mode) can force a tier before the pin;
// after the pin a conflicting request throws.  Building with
// -DCOMIMO_SIMD=OFF defines COMIMO_SIMD_DISABLED and compiles every
// backend but the scalar one away.  The pinned tier is exported as the
// obs gauges "simd.active_tier" / "simd.lane_width".
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace comimo {
class Rng;
}  // namespace comimo

namespace comimo::simd {

using cplx = std::complex<double>;

/// ISA tiers.  Enumerator values are stable identifiers, not the
/// preference order — see detect_best_tier for that.
enum class Tier : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kNeon = 3,
  kAvx512 = 4,
};

/// Stable lowercase name ("scalar", "sse2", "avx2", "avx512", "neon") —
/// the same tokens --simd= accepts and the bench JSON records.
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// The per-tier kernel table.  Every plane argument uses the SoA layout
/// [element][lane] with this table's `width` lanes per element and
/// 64-byte base alignment; `elems` counts elements, not doubles.
/// Outputs never alias inputs, except in solve_normal, which works in
/// place.  Every vector tier is bit-identical per lane to the scalar
/// table, whose kernels reproduce the scalar code of numeric/cmatrix.cpp,
/// phy/stbc.cpp and phy/modulation.cpp bit for bit — except that
/// solve_normal's exact zeros may differ in sign from
/// CMatrix::solve_into's.
struct BatchKernels {
  Tier tier = Tier::kScalar;
  std::size_t width = 1;  ///< W, lanes per element group

  /// Batched multiply_into: out = a·b per lane
  /// (a: a_rows × a_cols, b: a_cols × b_cols).
  void (*multiply)(const double* a_re, const double* a_im,
                   const double* b_re, const double* b_im, double* out_re,
                   double* out_im, std::size_t a_rows, std::size_t a_cols,
                   std::size_t b_cols);

  /// Batched multiply_transposed_into: out(r, c) = Σ_k a(r, k)·b(c, k)
  /// per lane, ascending k (a: a_rows × a_cols, b: b_rows × a_cols).
  void (*multiply_transposed)(const double* a_re, const double* a_im,
                              const double* b_re, const double* b_im,
                              double* out_re, double* out_im,
                              std::size_t a_rows, std::size_t a_cols,
                              std::size_t b_rows);

  /// Componentwise v *= s — the batched `symbol *= sym_scale` step.
  void (*scale)(double* re, double* im, std::size_t elems, double s);

  /// Componentwise v /= s — the batched `estimate /= sym_scale` step.
  void (*divide)(double* re, double* im, std::size_t elems, double s);

  /// Batched StbcCode::encode_into.  `a`/`b` are the code's coefficient
  /// tensors laid out as a[(t·mt + i)·k + ki] (StbcCode::coeff_*_flat).
  void (*stbc_encode)(const cplx* a, const cplx* b, std::size_t t,
                      std::size_t mt, std::size_t k, double power_scale,
                      const double* sym_re, const double* sym_im,
                      double* out_re, double* out_im);

  /// Batched StbcCode::encode_into over *per-antenna* symbol planes —
  /// the cooperative-hop step 2, where each virtual antenna transmits
  /// its own (possibly broadcast-corrupted) belief of the payload.
  /// `sym_re`/`sym_im` hold mt · k elements laid out [(i·k + ki)][lane];
  /// antenna i contributes its own symbol vector instead of the single
  /// shared one stbc_encode assumes.  Same accumulation tree per lane.
  void (*stbc_encode_multi)(const cplx* a, const cplx* b, std::size_t t,
                            std::size_t mt, std::size_t k,
                            double power_scale, const double* sym_re,
                            const double* sym_im, double* out_re,
                            double* out_im);

  /// Batched real-expansion build of StbcDecoder::decode_into: fills the
  /// F plane (rows 2·t·mr × cols 2·k, layout [row·cols + col][lane]) and
  /// the y plane (2·t·mr elements) from the channel and received planes.
  void (*stbc_build_fy)(const cplx* a, const cplx* b, std::size_t t,
                        std::size_t mt, std::size_t k, std::size_t mr,
                        double power_scale, const double* h_re,
                        const double* h_im, const double* rx_re,
                        const double* rx_im, double* f, double* y);

  /// Batched normal equations: gram[(c1·cols + c2)·W + w] = (FᵀF)(c1,c2)
  /// (both triangles written) and rhs[c1·W + w] = (Fᵀy)(c1), dot
  /// products accumulated over ascending rows.  StbcDecoder::decode_into
  /// runs the scalar table's entry, so the decoder and every lane share
  /// this one accumulation order.
  void (*gram_rhs)(const double* f, const double* y, std::size_t rows,
                   std::size_t cols, double* gram, double* rhs);

  /// Batched CMatrix::solve_into on the real n × n systems gram_rhs
  /// fills, in place: on return rhs[c·W + w] holds lane w's solution and
  /// the gram plane's upper triangle its eliminated rows (the strict
  /// lower triangle is left unspecified).  Same partial-pivot order, row
  /// swaps and `f == 0` row skips per lane, in real arithmetic, so every
  /// solution value equals the complex solve's real part (an exact zero
  /// may differ in sign).  Returns false, leaving the planes partly
  /// eliminated, when any lane's pivot column is all zero — the scalar
  /// solve's "singular matrix" case.
  bool (*solve_normal)(double* gram, double* rhs, std::size_t n);

  /// Batched QamModulator::nearest_point: for every element, the index
  /// of the constellation point minimizing |r − p_i|², strict-< with
  /// first-minimum (lowest index) tie-break — the scalar argmin's exact
  /// semantics.  `labels` receives elems·width entries, same layout.
  void (*qam_nearest)(const double* sym_re, const double* sym_im,
                      std::size_t elems, const cplx* points,
                      std::size_t n_points, std::uint32_t* labels);

  // ---- Certified noise (DESIGN.md §10) --------------------------------
  //
  // These compute the same bits at every tier too, so every tier
  // certifies the same lanes.

  /// Box–Muller of each element's two words (draw_noise_words_batch)
  /// without libm, scaled like complex_gaussian and then by `gain`:
  /// re += (r̃·cos θ̃·sigma)·gain, im likewise, and err += that sample's
  /// bound on its distance from the exact value (rng.h derives it).
  void (*add_noise_approx)(const double* w1, const double* w2,
                           std::size_t elems, double sigma, double gain,
                           double* re, double* im, double* err);

  /// Before the solve: each lane's radius (rho, one element) within
  /// which its estimates, divided by sym_scale, can move when its
  /// received samples move by at most err (err_elems elements of the
  /// rx plane's shape), from Gershgorin bounds on the n × n gram and the
  /// chains' rounding on the `rows`-element y plane; +∞ for a lane
  /// whose gram bound is not a positive finite number.
  void (*cert_radius)(const double* gram, std::size_t n, const double* y,
                      std::size_t rows, const double* err,
                      std::size_t err_elems, double sym_scale, double* rho);

  /// ok[w] = 1 when every element of lane w lies farther than its radius
  /// (rho_stride 0: one per lane; 1: one per element), plus a rounding
  /// slack, from each decision edge of its axis, else 0.  Fails closed
  /// on NaN.
  void (*cert_margin)(const double* re, const double* im, std::size_t elems,
                      const double* rho, std::size_t rho_stride,
                      const double* edges_re, std::size_t n_re,
                      const double* edges_im, std::size_t n_im, double* ok);

  // ---- GF(256) region kernels (the RLNC coding/ hot path) -------------
  //
  // Exact byte arithmetic over the 0x11D field (gf256_tables.h):
  // every tier produces identical bytes by construction, so these carry
  // no rounding-order contract — only the table identity.  Buffers are
  // ordinary (unaligned) byte storage; src and dst must not alias.

  /// dst[i] ^= c ⊗ src[i] over len bytes — the Gaussian-elimination
  /// axpy.  c == 1 degenerates to XOR (the GF(2) add), c == 0 to a
  /// no-op.
  void (*gf256_mul_add_row)(std::uint8_t* dst, const std::uint8_t* src,
                            std::uint8_t c, std::size_t len);

  /// buf[i] = c ⊗ buf[i] over len bytes — pivot normalization.
  void (*gf256_mul_region)(std::uint8_t* buf, std::uint8_t c,
                           std::size_t len);

  /// dst[i] ^= src[i] over len bytes — the GF(2) region add.
  void (*gf_region_xor)(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t len);
};

/// The widest lane count of any tier (AVX-512's W = 8).
inline constexpr std::size_t kMaxWidth = 8;

/// Detection result for this process (ignores any --simd override).
[[nodiscard]] Tier detect_best_tier() noexcept;

/// Kernel table for an explicit tier, or nullptr when that tier is not
/// available here (not compiled in, unsupported CPU, or disabled via
/// COMIMO_SIMD=OFF).  kScalar is always available.
[[nodiscard]] const BatchKernels* kernels_for_tier(Tier tier) noexcept;

/// Requests a dispatch mode: "auto" (default), "scalar", "sse2",
/// "avx2", "avx512", or "neon".  Must be called before the first
/// active_kernels()
/// use; throws InvalidArgument for unknown/unavailable modes or when
/// called after the pin with a conflicting tier.
void set_mode(std::string_view mode);

/// The process-wide kernel table, resolved once on first call (honoring
/// set_mode) and pinned thereafter.
[[nodiscard]] const BatchKernels& active_kernels() noexcept;

/// Tier / lane width of active_kernels() — batch_width() == 1 means the
/// batch path degenerates to the scalar loop.
[[nodiscard]] Tier active_tier() noexcept;
[[nodiscard]] std::size_t batch_width() noexcept;

// ---- Per-lane RNG kernels ---------------------------------------------
//
// RNG streams are deliberately *not* vectorized: each lane draws from
// its own per-trial Rng in the scalar kernels' row-major element order,
// so the (seed, trial) stream contract of mc/engine.h is untouched.
// `rngs` is an array of `width` generators, one per lane.

/// Batched random_gaussian_into: plane element e of lane w receives the
/// w-th generator's e-th CN(0, variance) draw.
void random_gaussian_fill_batch(double* re, double* im, std::size_t elems,
                                std::size_t width, Rng* rngs,
                                double variance = 1.0);

/// The two raw words of `elems` noise samples per lane, drawn but not
/// evaluated, as bit patterns in the planes w1/w2 (std::bit_cast):
/// element e of lane w holds the w-th generator's e-th pair, and
/// box_muller of it, scaled by √(variance/2), is what that generator's
/// e-th complex_gaussian(variance) would have returned when no spare is
/// pending.  BatchKernels::add_noise_approx evaluates them.
void draw_noise_words_batch(double* w1, double* w2, std::size_t elems,
                            std::size_t width, Rng* rngs);

namespace detail {
// Backend entry points; each returns nullptr when its TU was compiled
// without the matching ISA (or with COMIMO_SIMD_DISABLED).
[[nodiscard]] const BatchKernels* scalar_kernels() noexcept;
[[nodiscard]] const BatchKernels* sse2_kernels() noexcept;
[[nodiscard]] const BatchKernels* avx2_kernels() noexcept;
[[nodiscard]] const BatchKernels* avx512_kernels() noexcept;
[[nodiscard]] const BatchKernels* neon_kernels() noexcept;
}  // namespace detail

}  // namespace comimo::simd
