// Orthogonal space-time block codes.
//
// §2.3 fixes the MIMO code system to space-time block codes "such as the
// Alamouti code".  We implement the complex orthogonal designs used with
// 2/3/4 cooperating transmitters:
//   * G2  — Alamouti, rate 1, T = 2, K = 2;
//   * G3  — Tarokh et al., rate 1/2, T = 8, K = 4, 3 antennas;
//   * G4  — Tarokh et al., rate 1/2, T = 8, K = 4, 4 antennas.
//
// A code is stored as the pair of coefficient tensors (a, b) with
//   C(t, i) = Σ_k a[t][i][k]·s_k + b[t][i][k]·conj(s_k),
// and decoding is exact ML for any orthogonal design: the real expansion
// of the received block is linear in [Re s; Im s], and the least-squares
// solution decouples because the equivalent real channel has orthogonal
// columns of squared norm ‖H‖²_F (times the code's power scale) — the
// diversity statistic the energy model's eq. (5) relies on.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comimo/numeric/cmatrix.h"

namespace comimo {

class StbcCode {
 public:
  /// The Alamouti code (2 Tx).
  [[nodiscard]] static StbcCode alamouti();
  /// Tarokh's rate-1/2 design for 3 Tx.
  [[nodiscard]] static StbcCode g3();
  /// Tarokh's rate-1/2 design for 4 Tx.
  [[nodiscard]] static StbcCode g4();
  /// Degenerate 1-Tx "code" (K = T = 1) so SISO/SIMO links share the
  /// code path.
  [[nodiscard]] static StbcCode siso();
  /// Picks the design for `num_tx` in 1..4.
  [[nodiscard]] static StbcCode for_antennas(std::size_t num_tx);

  [[nodiscard]] std::size_t num_tx() const noexcept { return num_tx_; }
  [[nodiscard]] std::size_t block_length() const noexcept { return t_; }
  [[nodiscard]] std::size_t symbols_per_block() const noexcept { return k_; }
  [[nodiscard]] double rate() const noexcept {
    return static_cast<double>(k_) / static_cast<double>(t_);
  }
  /// Per-antenna amplitude scale (1/√num_tx keeps total radiated energy
  /// equal to the uncoded single-antenna case).
  [[nodiscard]] double power_scale() const noexcept { return power_scale_; }

  /// Number of times each symbol is transmitted per antenna column
  /// (1 for SISO/Alamouti; 2 for the rate-1/2 G3/G4 designs, whose
  /// second half repeats the conjugated block).  Per-bit energy
  /// bookkeeping must divide the per-transmission energy by this.
  [[nodiscard]] double symbol_weight() const;

  /// a/b coefficient of symbol k at time t, antenna i.
  [[nodiscard]] cplx coeff_a(std::size_t t, std::size_t i,
                             std::size_t k) const;
  [[nodiscard]] cplx coeff_b(std::size_t t, std::size_t i,
                             std::size_t k) const;

  /// Flat coefficient tensors in idx(t, i, k) = (t·num_tx + i)·K + k
  /// order — the layout the batched SIMD kernels walk directly.
  [[nodiscard]] std::span<const cplx> coeff_a_flat() const noexcept {
    return a_;
  }
  [[nodiscard]] std::span<const cplx> coeff_b_flat() const noexcept {
    return b_;
  }

  /// Encodes K symbols into the T × num_tx transmission matrix
  /// (row = time slot, column = antenna), including the power scale.
  [[nodiscard]] CMatrix encode(std::span<const cplx> symbols) const;

  /// Allocation-free encode: writes the T × num_tx block into `out`
  /// (which must already have that shape).  Every element is written,
  /// so a reused workspace buffer cannot leak a previous block.
  /// Bit-identical to encode().
  void encode_into(std::span<const cplx> symbols, CMatrixView out) const;

  /// Verifies the orthogonality property  C^H C = (Σ|s_k|²)·I  up to
  /// tolerance, for property tests.
  [[nodiscard]] bool is_orthogonal_design(double tol = 1e-9) const;

 private:
  StbcCode(std::size_t num_tx, std::size_t t, std::size_t k);
  void set_a(std::size_t t, std::size_t i, std::size_t k, cplx v);
  void set_b(std::size_t t, std::size_t i, std::size_t k, cplx v);
  [[nodiscard]] std::size_t idx(std::size_t t, std::size_t i,
                                std::size_t k) const noexcept {
    return (t * num_tx_ + i) * k_ + k;
  }

  std::size_t num_tx_;
  std::size_t t_;
  std::size_t k_;
  double power_scale_;
  std::vector<cplx> a_;
  std::vector<cplx> b_;
};

/// Largest transmitter count an orthogonal design exists for here.
inline constexpr std::size_t kMaxStbcTx = 4;

/// Clamps a requested cooperator count to the supported code range, so
/// oversized clusters fall back to the G4 design instead of throwing.
[[nodiscard]] constexpr std::size_t stbc_supported_tx(
    std::size_t num_tx) noexcept {
  return num_tx < kMaxStbcTx ? num_tx : kMaxStbcTx;
}

/// One step down the resilience fallback ladder G4 → G3 → Alamouti →
/// SISO: the code the hop degrades to when a cooperating transmitter
/// drops out mid-route.  SISO (1) is the floor and maps to itself.
[[nodiscard]] constexpr std::size_t stbc_degraded_tx(
    std::size_t num_tx) noexcept {
  const std::size_t clamped = stbc_supported_tx(num_tx);
  return clamped > 1 ? clamped - 1 : 1;
}

/// Reusable scratch for StbcDecoder::decode_into: the real-expansion
/// design matrix and the normal equations, which are solved in place.
/// Every buffer is resize()-d per decode and fully written before it is
/// read, so one scratch serves blocks of any (and varying) antenna
/// configuration, allocation-free once it has seen the largest shape.
struct StbcDecodeScratch {
  std::vector<double> f;     ///< 2TMr × 2K real design matrix
  std::vector<double> y;     ///< 2TMr real received vector
  std::vector<double> gram;  ///< F^T F (2K × 2K), eliminated in place
  std::vector<double> rhs;   ///< F^T y, then the solution x
};

/// ML decoder for an orthogonal design over an mr-antenna receiver.
class StbcDecoder {
 public:
  explicit StbcDecoder(StbcCode code);

  /// Decodes one block.
  ///   h: mr × num_tx channel matrix (assumed known, as in the paper);
  ///   received: T × mr matrix of received samples.
  /// Returns K soft symbol estimates (scaled so that, noise-free,
  /// estimates equal the transmitted symbols).
  [[nodiscard]] std::vector<cplx> decode(const CMatrix& h,
                                         const CMatrix& received) const;

  /// Allocation-free decode: the K symbol estimates land in
  /// `out_symbols` (size K) and all intermediates live in `scratch`.
  /// Bit-identical to decode(); shape checks are debug-only (the
  /// allocating wrapper keeps the throwing checks).
  void decode_into(ConstCMatrixView h, ConstCMatrixView received,
                   std::span<cplx> out_symbols,
                   StbcDecodeScratch& scratch) const;

  /// Effective post-combining amplitude gain for channel h — equal to
  /// power_scale·‖H‖²_F for orthogonal designs; exposed for tests and
  /// for SNR bookkeeping.
  [[nodiscard]] double combining_gain(const CMatrix& h) const;

  [[nodiscard]] const StbcCode& code() const noexcept { return code_; }

 private:
  StbcCode code_;
};

}  // namespace comimo
