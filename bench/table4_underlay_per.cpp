// Table 4 reproduction — "PER results for underlay system".
//
// A 474-packet × 1500-byte image is transmitted with GMSK at 250 kbps
// by two cooperating co-located SU transmitters (or one, for the
// baseline) at transmit amplitudes 800/600/400; packet error rate is
// counted at the secondary receiver via CRC, exactly as the testbed
// counted it.
//
// The 3 amplitudes × 2 modes = 6 runs shard across the mc/ sweep engine
// (each cell is a pure function of its index); `--json <path>` emits
// comimo-bench-v1.
#include <iostream>

#include "comimo/common/bench_json.h"
#include "comimo/common/table.h"
#include "comimo/mc/engine.h"
#include "comimo/testbed/experiments.h"

int main(int argc, char** argv) {
  using namespace comimo;
  const BenchCli cli = parse_bench_cli(argc, argv);
  std::cout << "=== Table 4: underlay image-transfer PER ===\n"
            << "474 packets x 1500 B, GMSK; CRC-checked at the receiver\n\n";

  // Constructed first: the envelope's wall_s runs from here, so it
  // covers the six cells.
  BenchReporter reporter("table4_underlay_per");
  const std::vector<double> amplitudes{800.0, 600.0, 400.0};
  std::vector<UnderlayPerResult> results(amplitudes.size() * 2);
  McConfig mc;
  mc.pool = cli.pool();
  const McResult run = run_trials(
      results.size(), mc,
      [&](std::size_t t, Rng& /*rng*/, McAccumulator& acc) {
        UnderlayPerConfig cfg;
        cfg.amplitude = amplitudes[t / 2];
        cfg.seed = 7;
        cfg.cooperative = (t % 2 == 0);
        results[t] = run_underlay_per(cfg);
        acc.observe(cfg.cooperative ? "per_coop" : "per_solo",
                    results[t].per);
      });

  reporter.set_threads(cli.effective_threads());
  TextTable table({"Amplitude", "with cooperation", "without cooperation",
                   "image (coop)"});
  for (std::size_t i = 0; i < amplitudes.size(); ++i) {
    const UnderlayPerResult& coop = results[2 * i];
    const UnderlayPerResult& solo = results[2 * i + 1];
    table.add_row(
        {TextTable::fmt(amplitudes[i], 0), TextTable::pct(coop.per),
         TextTable::pct(solo.per),
         coop.reassembly.recoverable()
             ? (coop.per == 0.0 ? "perfect" : "recovered w/ distortion")
             : "unrecoverable"});
    Json params = Json::object();
    params.set("amplitude", amplitudes[i]);
    Json metrics = Json::object();
    metrics.set("per_cooperative", coop.per);
    metrics.set("per_solo", solo.per);
    metrics.set("image_recoverable", coop.reassembly.recoverable() ? 1 : 0);
    reporter.add_record(std::move(params), std::move(metrics));
  }
  const double coop_avg = run.acc.stat("per_coop").mean();
  const double solo_avg = run.acc.stat("per_solo").mean();
  table.add_row({"Average", TextTable::pct(coop_avg),
                 TextTable::pct(solo_avg), ""});
  table.print(std::cout);
  std::cout << "\nPaper: coop 0 / 6.12% / 13.72% (avg 6.61%); solo 24.85%"
               " / 70.28% / 97.1% (avg 64.08%).\n";

  Json params = Json::object();
  params.set("summary", true);
  Json metrics = Json::object();
  metrics.set("per_cooperative_avg", coop_avg);
  metrics.set("per_solo_avg", solo_avg);
  reporter.add_record(std::move(params), std::move(metrics), results.size(),
                      run.info.trials_per_sec);
  if (!cli.json_path.empty()) reporter.write_file(cli.json_path);
  return 0;
}
