#include "comimo/underlay/cooperative_hop.h"

#include <algorithm>
#include <limits>

#include "comimo/common/error.h"
#include "comimo/common/units.h"

namespace comimo {

double UnderlayHopPlan::peak_pa() const noexcept {
  const double local = (config.mt > 1 || config.mr > 1) ? local_tx_pa : 0.0;
  return std::max(local, static_cast<double>(config.mt) * mimo_tx_pa);
}

double UnderlayHopPlan::total_pa() const noexcept {
  double total = static_cast<double>(config.mt) * mimo_tx_pa;
  if (config.mt > 1) total += local_tx_pa;  // head's broadcast
  if (config.mr > 1) {
    total += static_cast<double>(config.mr - 1) * local_tx_pa;  // forwards
  }
  return total;
}

double UnderlayHopPlan::total_energy() const noexcept {
  double total = 0.0;
  if (config.mt > 1) {
    // Head broadcast heard by mt-1 cluster mates.
    total += local_tx_pa + local_tx_circuit +
             static_cast<double>(config.mt - 1) * local_rx;
  }
  total += static_cast<double>(config.mt) * (mimo_tx_pa + mimo_tx_circuit);
  total += static_cast<double>(config.mr) * mimo_rx;
  if (config.mr > 1) {
    total += static_cast<double>(config.mr - 1) *
             (local_tx_pa + local_tx_circuit + local_rx);
  }
  return total;
}

UnderlayCooperativeHop::UnderlayCooperativeHop(const SystemParams& params)
    : params_(params), local_(params), mimo_(params) {}

UnderlayHopPlan UnderlayCooperativeHop::plan_with_b(
    const UnderlayHopConfig& config, int b, double ebar) const {
  UnderlayHopPlan p;
  p.config = config;
  p.b = b;
  p.ebar = ebar;
  p.local_tx_pa =
      local_.pa_energy(b, config.ber, config.cluster_diameter_m);
  p.local_tx_circuit = local_.tx_circuit_energy(b, config.bandwidth_hz);
  p.local_rx = local_.rx_energy(b, config.bandwidth_hz);
  p.mimo_tx_pa =
      mimo_.pa_energy_with_ebar(b, p.ebar, config.mt, config.hop_distance_m);
  p.mimo_tx_circuit = mimo_.tx_circuit_energy(b, config.bandwidth_hz);
  p.mimo_rx = mimo_.rx_energy(b, config.bandwidth_hz);
  return p;
}

UnderlayHopPlan UnderlayCooperativeHop::plan(const UnderlayHopConfig& config,
                                             BSelectionRule rule) const {
  COMIMO_CHECK(config.mt >= 1 && config.mr >= 1, "need >= 1 node per side");
  COMIMO_CHECK(config.hop_distance_m > 0.0, "hop distance must be positive");
  COMIMO_CHECK(config.cluster_diameter_m >= 0.0, "negative cluster diameter");
  // Algorithm 2's table: every b's ē_b in one memo read.
  const EbBarRow row = mimo_.ebar_row(config.ber, config.mt, config.mr);
  UnderlayHopPlan best;
  double best_score = std::numeric_limits<double>::infinity();
  bool found = false;
  for (int b = kMinConstellationBits; b <= kMaxConstellationBits; ++b) {
    if (!row.reachable(b)) continue;  // BER target unreachable at this b
    const UnderlayHopPlan candidate = plan_with_b(config, b, row.at(b));
    double score = 0.0;
    switch (rule) {
      case BSelectionRule::kMinEbar:
        score = candidate.ebar;
        break;
      case BSelectionRule::kMinPeakPa:
        score = candidate.peak_pa();
        break;
      case BSelectionRule::kMinTotalPa:
        score = candidate.total_pa();
        break;
      case BSelectionRule::kMinTotalEnergy:
        score = candidate.total_energy();
        break;
    }
    if (score < best_score) {
      best_score = score;
      best = candidate;
      found = true;
    }
  }
  if (!found) {
    throw InfeasibleError("no feasible constellation for this hop");
  }
  return best;
}

UnderlayHopPlan UnderlayCooperativeHop::replan_shrunk(
    const UnderlayHopPlan& plan, unsigned alive_tx, unsigned alive_rx,
    BSelectionRule rule) const {
  UnderlayHopConfig shrunk = plan.config;
  shrunk.mt = std::max(1u, std::min(shrunk.mt, alive_tx));
  shrunk.mr = std::max(1u, std::min(shrunk.mr, alive_rx));
  if (shrunk.mt == plan.config.mt && shrunk.mr == plan.config.mr) {
    return plan;  // nothing dropped; keep the original plan verbatim
  }
  return this->plan(shrunk, rule);
}

PlanBerMeasurement measure_plan_ber(const UnderlayHopPlan& plan,
                                    std::size_t blocks, std::uint64_t seed,
                                    const SystemParams& params,
                                    std::size_t chunk_size,
                                    ThreadPool* pool) {
  COMIMO_CHECK(plan.b >= 1 && plan.b <= 8, "plan must carry b in 1..8");
  COMIMO_CHECK(plan.ebar > 0.0, "plan must carry a solved ebar");
  COMIMO_CHECK(blocks >= 1, "need at least one block");
  WaveformBerConfig cfg;
  cfg.b = plan.b;
  cfg.mt = static_cast<unsigned>(stbc_supported_tx(plan.config.mt));
  cfg.mr = std::max(1u, plan.config.mr);
  cfg.blocks = blocks;
  cfg.seed = seed;
  cfg.chunk_size = chunk_size;
  cfg.pool = pool;
  // The solver's ē_b is the per-branch received energy per bit; against
  // the thermal floor N0 it is exactly the kernel's linear γ_b.
  const double gamma_b = plan.ebar / params.n0_w_per_hz;
  const WaveformBerPoint point =
      measure_waveform_ber(cfg, linear_to_db(gamma_b));
  PlanBerMeasurement out;
  out.gamma_b_db = point.gamma_b_db;
  out.ber = point.ber;
  out.bits = point.bits;
  out.bit_errors = point.bit_errors;
  out.info = point.info;
  return out;
}

}  // namespace comimo
