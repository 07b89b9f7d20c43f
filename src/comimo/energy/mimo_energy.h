// Long-haul cooperative MIMO link energy per bit — paper eqs. (3)–(4).
//
//   e^MIMOt(mt, mr) = e^MIMOt_PA + e^MIMOt_C
//   e^MIMOt_PA = (1/mt)(1+α)·ē_b(p,b,mt,mr)·(4πD)²/(GtGr·λ²)·M_l·N_f
//   e^MIMOt_C  = (P_ct + P_syn)/(b·B)
//   e^MIMOr    = (P_cr + P_syn)/(b·B)
//
// ē_b is Algorithm 2's "Preprocessing" table, held as a memo of
// EbBarSolver::solve that fills lazily: the first request for a
// (p, mt, mr) solves every b in [kMinConstellationBits,
// kMaxConstellationBits] once and stores the row, and every later
// request, from any thread, reads it.  solve is a pure function of its
// arguments, so a memoized ē_b is bitwise the solved one.
// pa_energy_with_ebar takes an explicit ē_b instead (e.g. one looked up
// in an EbBarTable).
#pragma once

#include <array>
#include <memory>

#include "comimo/common/constants.h"
#include "comimo/energy/ebbar.h"
#include "comimo/energy/local_energy.h"

namespace comimo {

/// ē_b(p, b, mt, mr) for every b at one (p, mt, mr): one row of the memo.
struct EbBarRow {
  /// ē_b [J] at b = kMinConstellationBits + i.  0 marks a b at which
  /// the target is unreachable (EbBarSolver::solve threw NumericError).
  std::array<double, kMaxConstellationBits - kMinConstellationBits + 1>
      ebar{};

  /// False where the target is unreachable at b.  Throws
  /// InvalidArgument for b outside [kMinConstellationBits,
  /// kMaxConstellationBits].
  [[nodiscard]] bool reachable(int b) const;
  /// ē_b at b; throws NumericError where the target is unreachable.
  [[nodiscard]] double at(int b) const;
};

/// Thread-safe: copies share one memo, and any number of threads may
/// query one model.
class MimoEnergyModel {
 public:
  explicit MimoEnergyModel(
      const SystemParams& params = {},
      EbBarConvention convention = EbBarConvention::kPerAntennaSplit);

  /// The memoized ē_b row for (p, mt, mr); the first request for a key
  /// solves it.  Throws InvalidArgument, and caches nothing, for p
  /// outside (0, 1) or a zero antenna count.
  [[nodiscard]] EbBarRow ebar_row(double p, unsigned mt, unsigned mr) const;

  /// ē_b(p, b, mt, mr) read through the memo.  Throws NumericError where
  /// the target is unreachable at b, InvalidArgument for b outside
  /// [kMinConstellationBits, kMaxConstellationBits].
  [[nodiscard]] double ebar(double p, int b, unsigned mt, unsigned mr) const;

  /// PA energy per bit at each transmitting node, eq. (3), with ē_b
  /// from the memo.
  [[nodiscard]] double pa_energy(int b, double p, unsigned mt, unsigned mr,
                                 double distance_m) const;

  /// PA energy per bit with a caller-provided ē_b (table-driven path —
  /// what the SU nodes do after Preprocessing).
  [[nodiscard]] double pa_energy_with_ebar(int b, double ebar,
                                           unsigned mt,
                                           double distance_m) const;

  /// Transmit circuit energy per bit e^MIMOt_C.
  [[nodiscard]] double tx_circuit_energy(int b, double bw_hz) const;

  /// Receive energy per bit e^MIMOr, eq. (4).
  [[nodiscard]] double rx_energy(int b, double bw_hz) const;

  /// Full per-node transmit energy e^MIMOt(mt, mr), eq. (3).
  [[nodiscard]] EnergyBreakdown tx_energy(int b, double p, unsigned mt,
                                          unsigned mr, double distance_m,
                                          double bw_hz) const;

  /// Inverts eq. (3) for distance: the D at which the per-node transmit
  /// energy equals `energy_per_bit` (given b, p, mt, mr, B).  Throws
  /// InfeasibleError when the budget doesn't even cover the circuit
  /// energy.
  [[nodiscard]] double distance_for_energy(double energy_per_bit, int b,
                                           double p, unsigned mt, unsigned mr,
                                           double bw_hz) const;

  [[nodiscard]] const SystemParams& params() const noexcept { return params_; }
  [[nodiscard]] const EbBarSolver& solver() const noexcept { return solver_; }

 private:
  struct EbBarMemo;  // (p, mt, mr) -> EbBarRow under one mutex

  SystemParams params_;
  EbBarSolver solver_;
  std::shared_ptr<EbBarMemo> memo_;
};

}  // namespace comimo
