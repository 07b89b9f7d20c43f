#include "comimo/energy/mimo_energy.h"

#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

bool EbBarRow::reachable(int b) const {
  COMIMO_CHECK(b >= kMinConstellationBits && b <= kMaxConstellationBits,
               "b outside the constellation range");
  return ebar[static_cast<std::size_t>(b - kMinConstellationBits)] > 0.0;
}

double EbBarRow::at(int b) const {
  if (!reachable(b)) {
    throw NumericError("target BER unreachable at this constellation");
  }
  return ebar[static_cast<std::size_t>(b - kMinConstellationBits)];
}

struct MimoEnergyModel::EbBarMemo {
  std::mutex mu;
  std::map<std::tuple<double, unsigned, unsigned>, EbBarRow> rows;
};

MimoEnergyModel::MimoEnergyModel(const SystemParams& params,
                                 EbBarConvention convention)
    : params_(params),
      solver_(params, convention),
      memo_(std::make_shared<EbBarMemo>()) {}

EbBarRow MimoEnergyModel::ebar_row(double p, unsigned mt,
                                   unsigned mr) const {
  COMIMO_CHECK(p > 0.0 && p < 1.0, "target BER must be in (0,1)");
  COMIMO_CHECK(mt >= 1 && mr >= 1, "antenna counts must be >= 1");
  const std::tuple key{p, mt, mr};
  // The fill runs under the lock, so each key is solved exactly once
  // however many threads ask for it first.
  const std::lock_guard<std::mutex> lock(memo_->mu);
  if (const auto it = memo_->rows.find(key); it != memo_->rows.end()) {
    return it->second;
  }
  EbBarRow row;
  for (int b = kMinConstellationBits; b <= kMaxConstellationBits; ++b) {
    try {
      row.ebar[static_cast<std::size_t>(b - kMinConstellationBits)] =
          solver_.solve(p, b, mt, mr);
    } catch (const NumericError&) {
      // Unreachable at this b: the row keeps 0 there.
    }
  }
  memo_->rows.emplace(key, row);
  return row;
}

double MimoEnergyModel::ebar(double p, int b, unsigned mt,
                             unsigned mr) const {
  return ebar_row(p, mt, mr).at(b);
}

double MimoEnergyModel::pa_energy_with_ebar(int b, double ebar, unsigned mt,
                                            double distance_m) const {
  COMIMO_CHECK(b >= 1, "b must be >= 1");
  COMIMO_CHECK(mt >= 1, "mt must be >= 1");
  COMIMO_CHECK(ebar >= 0.0 && distance_m >= 0.0, "negative inputs");
  const double alpha = params_.pa_overhead(b);
  return (1.0 / static_cast<double>(mt)) * (1.0 + alpha) * ebar *
         params_.long_haul_attenuation(distance_m);
}

double MimoEnergyModel::pa_energy(int b, double p, unsigned mt, unsigned mr,
                                  double distance_m) const {
  return pa_energy_with_ebar(b, ebar(p, b, mt, mr), mt, distance_m);
}

double MimoEnergyModel::tx_circuit_energy(int b, double bw_hz) const {
  COMIMO_CHECK(b >= 1 && bw_hz > 0.0, "invalid rate parameters");
  return (params_.p_ct_w + params_.p_syn_w) /
         (static_cast<double>(b) * bw_hz);
}

double MimoEnergyModel::rx_energy(int b, double bw_hz) const {
  COMIMO_CHECK(b >= 1 && bw_hz > 0.0, "invalid rate parameters");
  return (params_.p_cr_w + params_.p_syn_w) /
         (static_cast<double>(b) * bw_hz);
}

EnergyBreakdown MimoEnergyModel::tx_energy(int b, double p, unsigned mt,
                                           unsigned mr, double distance_m,
                                           double bw_hz) const {
  EnergyBreakdown e;
  e.pa = pa_energy(b, p, mt, mr, distance_m);
  e.circuit = tx_circuit_energy(b, bw_hz);
  return e;
}

double MimoEnergyModel::distance_for_energy(double energy_per_bit, int b,
                                            double p, unsigned mt,
                                            unsigned mr, double bw_hz) const {
  COMIMO_CHECK(energy_per_bit > 0.0, "energy budget must be positive");
  const double circuit = tx_circuit_energy(b, bw_hz);
  const double pa_budget = energy_per_bit - circuit;
  if (pa_budget <= 0.0) {
    throw InfeasibleError(
        "energy budget does not cover the transmit circuit energy");
  }
  const double eb = ebar(p, b, mt, mr);
  // e_PA = (1/mt)(1+α)·ē_b·(4πD)²/(GtGr λ²)·Ml·Nf  ⇒  solve for D.
  const double alpha = params_.pa_overhead(b);
  const double coeff = (1.0 / static_cast<double>(mt)) * (1.0 + alpha) *
                       eb * params_.link_margin * params_.noise_figure /
                       (params_.gt_gr * params_.lambda_m * params_.lambda_m);
  const double four_pi_d_sq = pa_budget / coeff;
  return std::sqrt(four_pi_d_sq) / (4.0 * kPi);
}

}  // namespace comimo
