#!/usr/bin/env bash
# Validate the structured bench output contract:
#   1. every bench binary accepts --json <path> and writes valid JSON;
#   2. comimo-bench-v1 emitters carry the required fields, including a
#      system-clock timestamp_unix_s (wall_s is steady_clock and cannot
#      date a committed run) and, on every envelope emitted here, the
#      active SIMD tier and its lane count (simd_tier, simd_lanes; the
#      committed artifacts that predate them are not held to these two);
#   3. for the engine-backed benches (run with --obs), both the per-
#      record `metrics` objects AND the envelope-level deterministic
#      `metrics` block are identical between a serial run and a
#      --threads 4 run — the mc/ engine's determinism contract plus the
#      obs layer's chunk-ordered shard merge, checked end to end.
#      (`metrics_runtime` — latencies, utilization — is exempt.)
# perf_kernels emits comimo-bench-v1 in --json mode (the google-benchmark
# micro-kernels still run when --json is absent) and additionally
# guarantees allocs_per_block == 0 on the workspace and simd_batch
# records, plus speedup_vs_scalar >= 1.0 for the SIMD batch path.
#
# Usage: scripts/check_bench_json.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found (build with -DCOMIMO_BUILD_BENCH=ON)" >&2
  exit 1
fi

# Fast, trial-bound benches re-run twice for the determinism diff.
# The remaining emitters are schema-checked from a single serial run.
DETERMINISM_BENCHES=(
  table1_interweave_amplitude
  table2_overlay_single_relay
  table3_overlay_multi_relay
  table4_underlay_per
  validate_energy_model
  ext_fault_recovery
  ext_network_lifetime
  ext_rlnc_vs_arq
)
SCHEMA_ONLY_BENCHES=(
  fig6_overlay_distance
  fig8_beam_pattern
  ext_outage_analysis
  ext_sensing_tradeoffs
  ext_coexistence
)

validate_v1() {
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
assert d.get("schema") == "comimo-bench-v1", f"schema: {d.get('schema')!r}"
assert isinstance(d.get("bench"), str) and d["bench"], "bench name missing"
assert isinstance(d.get("threads"), int) and d["threads"] >= 1
ts = d.get("timestamp_unix_s")
assert isinstance(ts, int) and not isinstance(ts, bool), \
    f"timestamp_unix_s missing or non-integer: {ts!r}"
assert ts > 1704067200, \
    f"timestamp_unix_s not a plausible system-clock date: {ts}"
assert isinstance(d.get("wall_s"), (int, float)) and d["wall_s"] >= 0
assert isinstance(d.get("records"), list) and d["records"], "no records"
for r in d["records"]:
    assert isinstance(r.get("params"), dict), "record without params"
    assert isinstance(r.get("metrics"), dict) and r["metrics"], \
        "record without metrics"
EOF
}

# validate_v1 plus what every envelope written by this build records:
# the SIMD tier its kernels ran on.
validate_fresh() {
  validate_v1 "$1" && python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
tier = d.get("simd_tier")
assert isinstance(tier, str) and tier, f"simd_tier missing: {tier!r}"
lanes = d.get("simd_lanes")
assert isinstance(lanes, int) and not isinstance(lanes, bool) \
    and lanes >= 1, f"simd_lanes missing or not a lane count: {lanes!r}"
EOF
}

diff_metrics() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
am = [(r["params"], r["metrics"]) for r in a["records"]]
bm = [(r["params"], r["metrics"]) for r in b["records"]]
assert am == bm, "serial vs parallel record metrics differ"
# Both runs used --obs, so the envelope must carry the deterministic
# obs block, and it must be worker-count invariant.  metrics_runtime
# (latencies, queue depths) is runtime domain and exempt by design.
assert isinstance(a.get("metrics"), dict), "envelope metrics missing (--obs)"
assert a["metrics"] == b["metrics"], \
    "serial vs parallel envelope obs metrics differ"
EOF
}

fail=0

for bench in "${DETERMINISM_BENCHES[@]}"; do
  bin="$BENCH_DIR/$bench"
  [ -x "$bin" ] || { echo "MISSING  $bench"; fail=1; continue; }
  if ! "$bin" --json "$OUT_DIR/$bench.serial.json" --threads 1 --obs \
      > /dev/null 2>&1; then
    echo "RUN FAIL $bench (serial)"; fail=1; continue
  fi
  if ! "$bin" --json "$OUT_DIR/$bench.par.json" --threads 4 --obs \
      > /dev/null 2>&1; then
    echo "RUN FAIL $bench (--threads 4)"; fail=1; continue
  fi
  if ! validate_fresh "$OUT_DIR/$bench.serial.json"; then
    echo "SCHEMA   $bench"; fail=1; continue
  fi
  if ! diff_metrics "$OUT_DIR/$bench.serial.json" "$OUT_DIR/$bench.par.json"
  then
    echo "DIVERGED $bench (1 vs 4 threads)"; fail=1; continue
  fi
  echo "OK       $bench (schema + thread-count invariance, records + obs)"
done

for bench in "${SCHEMA_ONLY_BENCHES[@]}"; do
  bin="$BENCH_DIR/$bench"
  [ -x "$bin" ] || { echo "MISSING  $bench"; fail=1; continue; }
  if ! "$bin" --json "$OUT_DIR/$bench.json" > /dev/null 2>&1; then
    echo "RUN FAIL $bench"; fail=1; continue
  fi
  if ! validate_fresh "$OUT_DIR/$bench.json"; then
    echo "SCHEMA   $bench"; fail=1; continue
  fi
  echo "OK       $bench (schema)"
done

# perf_kernels: comimo-bench-v1 schema plus the zero-allocation gate —
# every workspace AND simd_batch record must report allocs_per_block
# == 0, and the batch path must never lose to the scalar workspace path
# (speedup_vs_scalar >= 1.0; bit-error identity is asserted inside the
# binary itself, which aborts on divergence).
if [ -x "$BENCH_DIR/perf_kernels" ]; then
  if "$BENCH_DIR/perf_kernels" --json "$OUT_DIR/perf_kernels.json" \
      --trials 2000 > /dev/null 2>&1 \
    && validate_fresh "$OUT_DIR/perf_kernels.json" \
    && python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
ws = [r for r in d["records"] if r["params"].get("path") == "workspace"]
assert ws, "no workspace records"
for r in ws:
    assert r["metrics"]["allocs_per_block"] == 0, \
        f"workspace path allocates: {r}"
sb = [r for r in d["records"] if r["params"].get("path") == "simd_batch"]
assert sb, "no simd_batch records"
for r in sb:
    assert r["params"].get("simd"), "simd_batch record without tier name"
    assert r["params"].get("width", 0) >= 1, "simd_batch record without width"
    assert r["metrics"]["allocs_per_block"] == 0, \
        f"simd batch path allocates: {r}"
    assert r["metrics"].get("speedup_vs_scalar", 0) >= 1.0, \
        f"simd batch path slower than the scalar workspace path: {r}"
hb = [r for r in d["records"] if r["params"].get("path") == "hop_batch"]
assert len(hb) >= 3, f"expected >= 3 hop_batch shapes, got {len(hb)}"
for r in hb:
    assert r["params"].get("mt", 0) >= 1 and r["params"].get("mr", 0) >= 1, \
        "hop_batch record without (mt, mr) shape"
    assert r["metrics"]["allocs_per_block"] == 0, \
        f"hop batch path allocates: {r}"
    assert r["metrics"].get("speedup_vs_scalar", 0) >= 1.0, \
        f"hop batch path slower than the lane-serial path: {r}"' \
      "$OUT_DIR/perf_kernels.json"
  then
    echo "OK       perf_kernels (schema + zero-alloc + simd/hop batch speedup)"
  else
    echo "FAIL     perf_kernels"; fail=1
  fi
  # With the obs layer *enabled* the steady state must stay allocation
  # free too: counter adds are relaxed fetch-adds into preregistered
  # cells, and registration happens during warmup.
  if "$BENCH_DIR/perf_kernels" --json "$OUT_DIR/perf_kernels.obs.json" \
      --trials 2000 --obs > /dev/null 2>&1 \
    && python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert isinstance(d.get("metrics"), dict), "no envelope obs metrics"
assert d["metrics"]["counters"].get("phy.link_blocks", 0) > 0, \
    "obs enabled but phy.link_blocks never counted"
for r in d["records"]:
    if r["params"].get("path") in ("workspace", "simd_batch"):
        assert r["metrics"]["allocs_per_block"] == 0, \
            f"{r['params']['path']} path allocates with obs enabled: {r}"
g = d["metrics_runtime"]["gauges"] if "metrics_runtime" in d else {}
g = {**d["metrics"].get("gauges", {}), **g}
assert "simd.active_tier" in g and "simd.lane_width" in g, \
    f"simd dispatch gauges missing from obs envelope: {sorted(g)}"' \
      "$OUT_DIR/perf_kernels.obs.json"
  then
    echo "OK       perf_kernels (--obs: metrics embedded, still zero-alloc)"
  else
    echo "FAIL     perf_kernels (--obs)"; fail=1
  fi
else
  echo "MISSING  perf_kernels"; fail=1
fi

# mc/ shards: a --shards 4 run of the waveform sweep must reproduce
# the --shards 1 envelope bit for bit (each chunk round is cut into
# in-process slices whose per-chunk accumulators fold in global
# chunk-ordinal order).  Only the deterministic record metrics are
# compared — timing keys (speedup, trials/s) are runtime domain.  Both
# runs have --obs on, and the envelopes' deterministic obs metrics must
# match too, minus the mc.shard_count gauge that names the count.  A
# --shards 2 run smoke-checks the schema on the same binary.
if [ -x "$BENCH_DIR/mc_engine_speedup" ]; then
  if "$BENCH_DIR/mc_engine_speedup" --trials 4000 --shards 1 --obs \
      --json "$OUT_DIR/shards1.json" > /dev/null 2>&1 \
    && "$BENCH_DIR/mc_engine_speedup" --trials 4000 --shards 4 --obs \
      --json "$OUT_DIR/shards4.json" > /dev/null 2>&1 \
    && python3 -c '
import json, sys
KEYS = ("bit_errors", "bits", "ber", "analytic_ber")
def rows(path):
    d = json.load(open(path))
    return [({k: v for k, v in r["params"].items() if k != "shards"},
             {k: r["metrics"][k] for k in KEYS})
            for r in d["records"]]
def obs(path):
    m = json.load(open(path))["metrics"]
    assert m["counters"].get("phy.link_blocks", 0) > 0, \
        f"{path}: phy.link_blocks never counted"
    m["gauges"].pop("mc.shard_count")
    return m
a, b = rows(sys.argv[1]), rows(sys.argv[2])
assert a, "no records in the sharded envelope"
assert a == b, "--shards 1 vs --shards 4 envelopes diverge"
assert obs(sys.argv[1]) == obs(sys.argv[2]), \
    "--shards 1 vs --shards 4 obs metrics diverge"' \
      "$OUT_DIR/shards1.json" "$OUT_DIR/shards4.json" \
    && "$BENCH_DIR/mc_engine_speedup" --trials 1000 --shards 2 \
      --json "$OUT_DIR/shards2.json" > /dev/null 2>&1 \
    && validate_fresh "$OUT_DIR/shards2.json"
  then
    echo "OK       mc_engine_speedup (--shards 4 bit-identical to --shards 1, obs too)"
  else
    echo "FAIL     mc_engine_speedup (--shards)"; fail=1
  fi
else
  echo "MISSING  mc_engine_speedup"; fail=1
fi

# mc/adaptive: the precision-targeted driver must actually stop early
# (and save trials) at the shallow waterfall point, the IS tier must
# carry a healthy weight ESS, and — the checkpoint-determinism
# contract — every deterministic record metric must be identical
# between --threads 1 and --threads 4 (the stop decision is evaluated
# only at global chunk-ordinal checkpoints, so the executed trial set
# is a pure function of the config).  Timing keys are runtime domain
# and excluded, exactly like the mc_engine --shards diff.
if [ -x "$BENCH_DIR/adaptive_mc" ]; then
  if "$BENCH_DIR/adaptive_mc" --trials 20000 --threads 1 \
      --json "$OUT_DIR/adaptive1.json" > /dev/null 2>&1 \
    && "$BENCH_DIR/adaptive_mc" --trials 20000 --threads 4 \
      --json "$OUT_DIR/adaptive4.json" > /dev/null 2>&1 \
    && validate_fresh "$OUT_DIR/adaptive1.json" \
    && python3 -c '
import json, sys
KEYS = ("trials_executed", "trials_saved", "checkpoints", "target_met",
        "bits", "bit_errors", "ber", "analytic_ber", "rel_ci", "ess",
        "err_blocks")
def rows(path):
    d = json.load(open(path))
    return [(r["params"]["mode"], r["params"]["gamma_b_db"],
             {k: r["metrics"][k] for k in KEYS if k in r["metrics"]})
            for r in d["records"]]
a, b = rows(sys.argv[1]), rows(sys.argv[2])
assert a, "no adaptive_mc records"
assert a == b, "--threads 1 vs --threads 4 adaptive envelopes diverge"
shallow = {mode: m for mode, g, m in a if g == 6.0}
for mode in ("adaptive", "adaptive_is"):
    assert mode in shallow, f"missing 6 dB record: {mode}"
    m = shallow[mode]
    assert m["target_met"] == 1, f"{mode} @ 6 dB missed the CI target: {m}"
    assert m["trials_saved"] > 0, f"{mode} @ 6 dB saved no trials: {m}"
ess = shallow["adaptive_is"]["ess"]
assert ess > 50, f"IS error-block weight ESS degenerate at 6 dB: {ess}"' \
      "$OUT_DIR/adaptive1.json" "$OUT_DIR/adaptive4.json"
  then
    echo "OK       adaptive_mc (thread-count invariance + early stop + IS ESS)"
  else
    echo "FAIL     adaptive_mc"; fail=1
  fi
else
  echo "MISSING  adaptive_mc"; fail=1
fi

# net_scale: schema-checked on a shrunk ladder (--trials) — the full
# million-node run is the committed artifact, gated below.
if [ -x "$BENCH_DIR/net_scale" ]; then
  if "$BENCH_DIR/net_scale" --trials 20000 \
      --json "$OUT_DIR/net_scale.json" > /dev/null 2>&1 \
    && validate_fresh "$OUT_DIR/net_scale.json" \
    && python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
for r in d["records"]:
    m = r["metrics"]
    assert m["admitted"] == r["params"]["n"], "admitted != n"
    assert m["routed_pairs"] > 0, "no routed pairs"
    bpn = m["bytes_per_node"]
    assert bpn <= 512, f"bytes/node unbounded: {bpn}"' \
      "$OUT_DIR/net_scale.json"
  then
    echo "OK       net_scale (schema + bounded bytes/node, shrunk ladder)"
  else
    echo "FAIL     net_scale"; fail=1
  fi
else
  echo "MISSING  net_scale"; fail=1
fi

# The committed BENCH_link_kernel.json is the kernel-perf claim of
# record: it must carry hop_batch rows for >= 3 (mt, mr) shapes, each
# allocation-free and at least as fast as the lane-serial path.
if [ -f BENCH_link_kernel.json ]; then
  if validate_v1 BENCH_link_kernel.json && python3 -c '
import json
d = json.load(open("BENCH_link_kernel.json"))
hb = [r for r in d["records"] if r["params"].get("path") == "hop_batch"]
shapes = {(r["params"]["mt"], r["params"]["mr"]) for r in hb}
assert len(shapes) >= 3, f"hop_batch shapes committed: {sorted(shapes)}"
for r in hb:
    assert r["metrics"]["allocs_per_block"] == 0, \
        f"committed hop_batch row allocates: {r}"
    assert r["metrics"]["speedup_vs_scalar"] >= 1.0, \
        f"committed hop_batch row slower than lane-serial: {r}"
'
  then
    echo "OK       BENCH_link_kernel.json (hop_batch rows: zero-alloc, speedup >= 1)"
  else
    echo "FAIL     BENCH_link_kernel.json"; fail=1
  fi
else
  echo "MISSING  BENCH_link_kernel.json (committed artifact)"; fail=1
fi

# The committed BENCH_net_scale.json is the million-node claim itself:
# it must carry an n = 10⁶ row where every SU was admitted, sampled
# pairs routed, and the engine held bounded per-node memory.
if [ -f BENCH_net_scale.json ]; then
  if validate_v1 BENCH_net_scale.json && python3 -c '
import json
d = json.load(open("BENCH_net_scale.json"))
rows = {r["params"]["n"]: r["metrics"] for r in d["records"]}
assert 1000000 in rows, f"no n=10^6 row (have {sorted(rows)})"
m = rows[1000000]
adm, bpn = m["admitted"], m["bytes_per_node"]
assert adm == 1000000, f"admitted {adm} != 10^6"
assert m["clusters"] > 0 and m["links"] > 0, "degenerate network"
assert m["routed_pairs"] > 0, "no pairs routed at 10^6"
assert bpn <= 512, f"bytes/node {bpn} above the 512 bound"
assert m["incremental_kill_s"] < m["build_s"], \
    "incremental kill wave not cheaper than a full build"
'
  then
    echo "OK       BENCH_net_scale.json (n=10^6 row, bounded bytes/node)"
  else
    echo "FAIL     BENCH_net_scale.json"; fail=1
  fi
else
  echo "MISSING  BENCH_net_scale.json (committed artifact)"; fail=1
fi

# The committed BENCH_rlnc_vs_arq.json carries the PR's headline claim:
# under heavy burst loss the coded transport must not deliver less than
# ARQ facing the identical fault streams.  Gate the artifact itself so a
# regression cannot ride in behind a stale JSON.
if [ -f BENCH_rlnc_vs_arq.json ]; then
  if validate_v1 BENCH_rlnc_vs_arq.json && python3 -c '
import json
d = json.load(open("BENCH_rlnc_vs_arq.json"))
rows = {(r["params"]["transport"], r["params"]["burst"]): r["metrics"]
        for r in d["records"]}
for pair in [("arq", "heavy"), ("rlnc", "heavy")]:
    assert pair in rows, f"missing record {pair}"
for (_, burst) in rows:
    arq, rlnc = rows[("arq", burst)], rows[("rlnc", burst)]
    for m in ("delivery_ratio", "energy_per_delivered_bit_j",
              "mean_delivery_latency_s", "time_per_delivered_packet_s",
              "overhead_packets"):
        assert m in arq and m in rlnc, f"metric {m} missing at burst={burst}"
a, r = rows[("arq", "heavy")], rows[("rlnc", "heavy")]
assert r["delivery_ratio"] >= a["delivery_ratio"], (
    f"RLNC delivery {r['delivery_ratio']} below ARQ "
    f"{a['delivery_ratio']} at the heavy-burst corner")
assert (r["time_per_delivered_packet_s"]
        <= a["time_per_delivered_packet_s"]), (
    f"RLNC time/delivered {r['time_per_delivered_packet_s']} above ARQ "
    f"{a['time_per_delivered_packet_s']} at the heavy-burst corner")
'
  then
    echo "OK       BENCH_rlnc_vs_arq.json (schema + heavy-burst delivery gate)"
  else
    echo "FAIL     BENCH_rlnc_vs_arq.json"; fail=1
  fi
else
  echo "MISSING  BENCH_rlnc_vs_arq.json (committed artifact)"; fail=1
fi

# The committed BENCH_adaptive_mc.json carries the PR's headline perf
# claim: every row must have met its CI target inside the budget with
# trials to spare, the IS rows must keep a non-degenerate error-block
# weight ESS (ess >= 50 and ess_frac >= 0.2 of the error blocks — a
# mis-tilt shows up as a few huge-weight errors dominating), and at the
# lowest-BER (highest γ_b) point the importance-sampled run must beat
# the MEASURED equal-CI naive cost by at least 10x.
if [ -f BENCH_adaptive_mc.json ]; then
  if validate_v1 BENCH_adaptive_mc.json && python3 -c '
import json
d = json.load(open("BENCH_adaptive_mc.json"))
rows = {(r["params"]["gamma_b_db"], r["params"]["mode"]): r["metrics"]
        for r in d["records"]}
assert rows, "no records"
for (g, mode), m in rows.items():
    assert m["target_met"] == 1, f"{mode} @ {g} dB missed the target: {m}"
    assert m["trials_saved"] > 0, f"{mode} @ {g} dB saved no trials: {m}"
is_rows = {g: m for (g, mode), m in rows.items() if mode == "adaptive_is"}
assert is_rows, "no adaptive_is records"
for g, m in is_rows.items():
    assert m["ess"] >= 50 and m["ess_frac"] >= 0.2, \
        f"IS error-block weight ESS degenerate @ {g} dB: {m}"
deep = is_rows[max(is_rows)]
assert deep["naive_measured"] == 1, \
    "equal-CI naive cost at the deepest point is projected, not measured"
red = deep["equal_ci_reduction_x"]
assert red >= 10.0, \
    f"IS equal-CI reduction {red}x below the 10x floor at the deepest point"
'
  then
    echo "OK       BENCH_adaptive_mc.json (targets met, ESS floor, >=10x at deepest point)"
  else
    echo "FAIL     BENCH_adaptive_mc.json"; fail=1
  fi
else
  echo "MISSING  BENCH_adaptive_mc.json (committed artifact)"; fail=1
fi

# The committed BENCH_mc_engine.json must (a) stay bit-identical across
# pool sizes, (b) agree with the analytic reference — the γ_b/m_t
# total-power normalization regression rode in behind exactly this
# artifact once — and (c) record the host core count so the parallel
# speedup is only gated when the recording machine could express it.
if [ -f BENCH_mc_engine.json ]; then
  if validate_v1 BENCH_mc_engine.json && python3 -c '
import json
d = json.load(open("BENCH_mc_engine.json"))
hc = d.get("hardware_concurrency")
assert isinstance(hc, int) and hc >= 1, \
    f"hardware_concurrency missing from the envelope: {hc!r}"
rows = {r["params"]["threads"]: r["metrics"] for r in d["records"]}
assert {1, 2, 4, 8} <= set(rows), f"pool sizes committed: {sorted(rows)}"
ref = rows[1]
for t, m in rows.items():
    assert (m["bit_errors"], m["bits"]) == (ref["bit_errors"], ref["bits"]), \
        f"{t}-thread row not bit-identical to serial: {m}"
    ber, ana = m["ber"], m["analytic_ber"]
    assert ana > 0, "analytic reference missing"
    rel = abs(ber - ana) / ana
    assert rel <= 0.15, (
        f"empirical BER {ber} vs analytic {ana} disagree by {rel:.1%} "
        "(check the per-branch power normalization)")
if hc >= 4:
    sp = rows[4]["speedup_vs_1t"]
    assert sp >= 1.5, f"4-thread speedup {sp}x on a {hc}-core host"
'
  then
    echo "OK       BENCH_mc_engine.json (bit-identity, analytic agreement, core-aware speedup)"
  else
    echo "FAIL     BENCH_mc_engine.json"; fail=1
  fi
else
  echo "MISSING  BENCH_mc_engine.json (committed artifact)"; fail=1
fi

# service_load: the daemon's admission accounting must balance in every
# phase (submitted == accepted + rejected — a lost job would break the
# identity), the latency reservoir must produce a p99, and the replay
# phase must report byte-identical result streams.  Run shrunk here;
# the committed artifact is gated below.
service_load_gate() {
  python3 - "$1" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
phases = {r["params"]["phase"]: r["metrics"] for r in d["records"]}
for need in ("load", "backpressure", "replay"):
    assert need in phases, f"missing phase record: {need}"
for phase, m in phases.items():
    assert m["jobs_submitted"] == m["jobs_accepted"] + m["jobs_rejected"], \
        f"{phase}: submitted != accepted + rejected: {m}"
    assert "latency_p99_ms" in m and m["latency_p99_ms"] >= m["latency_p50_ms"] >= 0, \
        f"{phase}: latency percentiles missing or inverted: {m}"
bp = phases["backpressure"]
assert bp["jobs_rejected"] > 0, f"backpressure phase never rejected: {bp}"
assert phases["replay"]["replay_identical"] == 1, "replay diverged"
EOF
}

if [ -x "$BENCH_DIR/service_load" ]; then
  if "$BENCH_DIR/service_load" --trials 8 \
      --json "$OUT_DIR/service_load.json" > /dev/null 2>&1 \
    && validate_fresh "$OUT_DIR/service_load.json" \
    && service_load_gate "$OUT_DIR/service_load.json"
  then
    echo "OK       service_load (schema + admission accounting + replay)"
  else
    echo "FAIL     service_load"; fail=1
  fi
else
  echo "MISSING  service_load"; fail=1
fi

# The committed BENCH_service_load.json is the daemon-robustness claim
# of record: same gates as the live run.
if [ -f BENCH_service_load.json ]; then
  if validate_v1 BENCH_service_load.json \
    && service_load_gate BENCH_service_load.json
  then
    echo "OK       BENCH_service_load.json (accounting identity + p99 + replay)"
  else
    echo "FAIL     BENCH_service_load.json"; fail=1
  fi
else
  echo "MISSING  BENCH_service_load.json (committed artifact)"; fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "bench JSON contract: FAILED" >&2
  exit 1
fi
echo "bench JSON contract: all checks passed"
