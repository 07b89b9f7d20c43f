// Model-validation harness: does the closed-form energy model deliver
// what it promises when actual waveforms fly?
//
// For every (mt, mr) in the Fig. 7 grid, plan an underlay hop at a
// target BER, then execute the full three-step Algorithm-2 hop at the
// sample level (DF broadcast, STBC over Rayleigh H at exactly the
// planned ē_b, analog forwarding to the head) and compare the measured
// end-to-end BER with the plan's target.
//
// The 9 grid cells shard across the mc/ sweep engine (each cell is a
// pure function of its (mt, mr) index), and each cell's hop blocks fan
// out on the same pool, where a cell's nested fan-out runs inline: the
// grid uses the `--threads` pool and nothing else.  `--json` emits
// comimo-bench-v1.
#include <iostream>

#include "comimo/common/bench_json.h"
#include "comimo/common/table.h"
#include "comimo/mc/engine.h"
#include "comimo/testbed/coop_hop_sim.h"

int main(int argc, char** argv) {
  using namespace comimo;
  const BenchCli cli = parse_bench_cli(argc, argv);
  std::cout << "=== validation: planned vs measured hop BER ===\n"
            << "200 m hop, target BER 1e-2, 200k bits per cell\n\n";

  const UnderlayCooperativeHop planner;
  struct Cell {
    unsigned mt = 0;
    unsigned mr = 0;
    UnderlayHopPlan plan;
    CoopHopSimResult r;
  };
  std::vector<Cell> cells(9);

  McConfig mc;
  mc.pool = cli.pool();
  (void)run_trials(
      cells.size(), mc, [&](std::size_t t, Rng& /*rng*/, McAccumulator&) {
        Cell& cell = cells[t];
        cell.mt = static_cast<unsigned>(t / 3) + 1;
        cell.mr = static_cast<unsigned>(t % 3) + 1;
        UnderlayHopConfig cfg;
        cfg.mt = cell.mt;
        cfg.mr = cell.mr;
        cfg.hop_distance_m = 200.0;
        cfg.ber = 1e-2;
        CoopHopSimConfig sim;
        sim.plan = planner.plan(cfg, BSelectionRule::kMinTotalPa);
        sim.bits = 200000;
        sim.seed = 11;
        sim.pool = cli.pool();
        cell.plan = sim.plan;
        cell.r = simulate_cooperative_hop(sim);
      });

  BenchReporter reporter("validate_energy_model");
  reporter.set_threads(cli.effective_threads());
  TextTable table({"mt x mr", "b", "ebar [J]", "target BER",
                   "measured BER", "ratio", "intra DF errors"});
  for (const Cell& cell : cells) {
    table.add_row({std::to_string(cell.mt) + "x" + std::to_string(cell.mr),
                   std::to_string(cell.plan.b),
                   TextTable::sci(cell.plan.ebar),
                   TextTable::sci(cell.r.target_ber),
                   TextTable::sci(cell.r.ber),
                   TextTable::fmt(cell.r.ber / cell.r.target_ber, 2),
                   TextTable::sci(cell.r.intra_error_rate)});
    Json params = Json::object();
    params.set("mt", cell.mt);
    params.set("mr", cell.mr);
    params.set("b", cell.plan.b);
    Json metrics = Json::object();
    metrics.set("ebar_j", cell.plan.ebar);
    metrics.set("target_ber", cell.r.target_ber);
    metrics.set("measured_ber", cell.r.ber);
    metrics.set("intra_error_rate", cell.r.intra_error_rate);
    reporter.add_record(std::move(params), std::move(metrics));
  }
  table.print(std::cout);
  std::cout << "\nA ratio near 1.0 means the eq. (5) inversion is"
               " faithful; mild optimism (<1) reflects the MQAM"
               " union-bound style approximation, mild pessimism (>1)"
               " the DF/forwarding impairments the closed form"
               " ignores.\n";
  if (!cli.json_path.empty()) reporter.write_file(cli.json_path);
  return 0;
}
