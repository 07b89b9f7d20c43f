// Scaling study of the mc/ sweep engine.
//
// Runs the same waveform-level STBC BER sweep (phy/ber_sweep.h) on
// private pools of 1, 2, 4 and 8 workers, asserts the merged results
// are BIT-IDENTICAL across pool sizes (the engine's determinism
// contract), and reports the trial throughput of each configuration.
// The committed BENCH_mc_engine.json is the structured record; on a
// single-core container the speedup column measures scheduling overhead
// rather than parallel gain — see EXPERIMENTS.md.
//
// `--trials <n>` shrinks the run for CI; `--shards <n>` cuts each
// run's chunk rounds into that many in-process slices (McConfig::shards)
// — the merged envelope, obs metrics included, must stay bit-identical
// to --shards 1, which scripts/check_bench_json.sh diffs; `--json
// <path>` emits comimo-bench-v1.
#include <cstdlib>
#include <iostream>

#include "comimo/common/bench_json.h"
#include "comimo/common/table.h"
#include "comimo/phy/ber_sweep.h"

int main(int argc, char** argv) {
  using namespace comimo;
  const BenchCli cli = parse_bench_cli(argc, argv);
  const std::size_t blocks = cli.trials ? cli.trials : 20000;
  std::cout << "=== mc engine scaling: waveform BER sweep ===\n"
            << "2x2 Alamouti, QPSK, gamma_b = 6 dB, " << blocks
            << " STBC blocks per run\n\n";

  BenchReporter reporter("mc_engine_speedup");

  WaveformBerConfig base;
  base.b = 2;
  base.mt = 2;
  base.mr = 2;
  base.blocks = blocks;
  base.seed = 42;
  base.shards = cli.shards;
  // --adaptive turns the fixed sweep into a precision-targeted one; the
  // stopping decision is checkpoint-deterministic, so the bit-identity
  // assertion below must keep holding across pool sizes.
  base.adaptive.target_rel_ci = cli.adaptive;

  TextTable t({"threads", "bit errors", "bits", "BER", "wall [s]",
               "trials/s", "speedup vs 1T"});
  double serial_tps = 0.0;
  std::size_t ref_errors = 0;
  std::size_t ref_bits = 0;
  bool identical = true;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    WaveformBerConfig cfg = base;
    cfg.pool = &pool;
    const WaveformBerPoint p = measure_waveform_ber(cfg, 6.0);
    if (threads == 1) {
      serial_tps = p.info.trials_per_sec;
      ref_errors = p.bit_errors;
      ref_bits = p.bits;
    } else if (p.bit_errors != ref_errors || p.bits != ref_bits) {
      identical = false;
    }
    const double speedup =
        serial_tps > 0.0 ? p.info.trials_per_sec / serial_tps : 0.0;
    t.add_row({std::to_string(threads), std::to_string(p.bit_errors),
               std::to_string(p.bits), TextTable::sci(p.ber),
               TextTable::fmt(p.info.wall_s, 3),
               TextTable::fmt(p.info.trials_per_sec, 0),
               TextTable::fmt(speedup, 2) + "x"});
    Json params = Json::object();
    params.set("threads", threads);
    params.set("shards", cli.shards);
    params.set("blocks", blocks);
    params.set("b", base.b);
    params.set("mt", base.mt);
    params.set("mr", base.mr);
    params.set("gamma_b_db", 6.0);
    if (cli.adaptive > 0.0) params.set("target_rel_ci", cli.adaptive);
    Json metrics = Json::object();
    metrics.set("bit_errors", p.bit_errors);
    metrics.set("bits", p.bits);
    metrics.set("ber", p.ber);
    metrics.set("analytic_ber", p.analytic);
    metrics.set("speedup_vs_1t", speedup);
    if (cli.adaptive > 0.0) {
      metrics.set("trials_executed", p.trials_executed);
      metrics.set("target_met", p.target_met ? 1 : 0);
      metrics.set("rel_ci", p.rel_ci);
    }
    reporter.add_record(std::move(params), std::move(metrics), blocks,
                        p.info.trials_per_sec);
  }
  t.print(std::cout);
  std::cout << "\nbit-identical across pool sizes: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATED") << "\n"
            << "(hardware_concurrency = "
            << std::thread::hardware_concurrency() << ")\n";

  if (!cli.json_path.empty()) reporter.write_file(cli.json_path);
  // The determinism contract is the point of this bench; fail loudly.
  return identical ? 0 : 1;
}
