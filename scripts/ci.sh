#!/usr/bin/env bash
# The one-command gate: tier-1 build + tests, the netscale large-n leg
# (COMIMO_NETSCALE=1 ctest -L netscale), the bench JSON contract,
# clang-tidy (bugprone-* + performance-*; skipped when the tool is not
# installed), the obs kill-switch/overhead gate, the COMIMO_SIMD=OFF
# scalar-pinned leg, the workspace + simd batch link-kernel tests under
# ASan + UBSan, the thread-pool and ē_b memo tests under TSan, and
# (optionally) the full sanitizer suite.
#
# Usage: scripts/ci.sh [build-dir]          (default: build)
#        CI_SANITIZE=1 scripts/ci.sh        also runs check_sanitized.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== tier 1: configure + build =="
cmake -B "$BUILD_DIR" -S . > /dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== tier 1: tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== netscale: large-n grid engine (opt-in label) =="
COMIMO_NETSCALE=1 ctest --test-dir "$BUILD_DIR" -L netscale \
  --output-on-failure

echo "== bench JSON contract =="
scripts/check_bench_json.sh "$BUILD_DIR"

echo "== service smoke: daemon up, load generator, clean shutdown =="
# The example runs a full demo session (hello, cached ebbar lookup, a
# sharded job, churn) against an in-process daemon and must shut
# down cleanly; the load generator then drives the three bench phases
# (mixed load, backpressure rejections, byte-identical replay) shrunk.
"$BUILD_DIR/examples/example_service_daemon" > /dev/null
"$BUILD_DIR/bench/service_load" --trials 6 > /dev/null

echo "== clang-tidy (bugprone-* + performance-*) =="
scripts/check_clang_tidy.sh

echo "== obs kill switch + disabled-overhead budget =="
scripts/check_obs_overhead.sh "$BUILD_DIR"

echo "== simd kill switch: COMIMO_SIMD=OFF leg =="
NOSIMD_DIR="${BUILD_DIR}-nosimd"
cmake -B "$NOSIMD_DIR" -S . \
  -DCOMIMO_SIMD=OFF \
  -DCOMIMO_BUILD_BENCH=OFF \
  -DCOMIMO_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$NOSIMD_DIR" -j "$(nproc)"
# The scalar-pinned build must hold the same golden tables (including
# the measure_waveform_ber pins), the batch layer must degenerate
# cleanly to width 1, the MC driver's width-1 path must keep every
# McEngine invariance, and the workspace and waveform paths must be
# untouched.  The Simd entry also matches SimdSolveNormal, the batched
# normal-equation solve against the complex one.  The certified Table 4
# receiver and its noise bounds draw through the same Box-Muller as the
# batch kernels.  At W = 1 every hop block takes the one-pass branch of
# the long haul, which CoopHopSim and RouteSim drive end to end.
ctest --test-dir "$NOSIMD_DIR" --output-on-failure \
  -R 'Golden|Simd|AlignedAlloc|LinkWorkspace|HopBatch|Waveform|Galois|Rlnc|SpatialIndex|SpatialGrid|NetworkFuzz|AdaptiveMc|ImportanceSampling|McEngine|UnderlayReceive|GmskPatternMargins|NoiseBounds|CoopHopSim|RouteSim' \
  -j "$(nproc)"

echo "== workspace, simd batch + coding kernels under ASan + UBSan =="
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCOMIMO_SANITIZE=ON \
  -DCOMIMO_BUILD_BENCH=OFF \
  -DCOMIMO_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$ASAN_DIR" -j "$(nproc)"
# The Rlnc leg includes the adversarial decoder fuzz (truncated,
# duplicated, reordered, linearly-dependent packets) — OOB or UB in the
# Gaussian elimination shows up here, not in release runs.
# SpatialIndex/SpatialGrid/NetworkFuzz exercise the grid walk, the
# tombstone removal and the incremental re-clustering splice — the
# pointer-heavy paths where OOB would hide; Recluster adds the
# locality pins and mid-size waves that reach the copy-or-dissolve
# branch of the re-clustering sweep.  Service/ServiceWire drive
# the daemon (sessions, backpressure, vanished clients) — the lifetime
# bugs this sweep exists for surface as ASan/UBSan reports here.
# McEngine, AdaptiveMc and ImportanceSampling cover the MC driver's
# chunk executor, its shard slices and checkpoint folding, and the
# tilted-noise weight path.  DetectorGrid drives the GMSK detector-grid chain's index
# arithmetic against the full waveform, and ParallelForChunks includes
# the many-callers stress test of the pool's completion hand-off (a
# stack use-after-free when it was racy).  EbBarMemoOracle checks the
# memoized hop planner against the per-b solve loop on route reports.
# UnderlayReceive, GmskPatternMargins and NoiseBounds drive the
# certified Table 4 receiver's grid walk, pattern tables and bounds.
# CoopHopSim and RouteSim run ragged hop tails and ARQ retries, whose
# width-1 long-haul passes read planes shaped for the pinned width.
# SimdSolveNormal drives the batched normal-equation solve's pivot rows,
# swaps and early singular exit at every tier and lane count.
ctest --test-dir "$ASAN_DIR" --output-on-failure \
  -R 'LinkWorkspace|SimdBatch|SimdSolveNormal|HopBatch|AlignedAlloc|Galois|Rlnc|GilbertElliott|SpatialIndex|SpatialGrid|NetworkFuzz|Recluster|Service|ServiceWire|AdaptiveMc|ImportanceSampling|McEngine|DetectorGrid|ParallelForChunks|EbBarMemoOracle|UnderlayReceive|GmskPatternMargins|NoiseBounds|CoopHopSim|RouteSim' \
  -j "$(nproc)"

echo "== thread pool under ThreadSanitizer =="
# The pool's completion hand-off raced with the caller's return; a plain
# or ASan build almost never shows it, TSan reports it on every run of
# the many-callers stress test.  EbBarMemoConcurrency has threads race
# to fill one planner's and one router's ē_b memo.  Only the test binary
# is built here.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
  -DCOMIMO_BUILD_BENCH=OFF \
  -DCOMIMO_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "$TSAN_DIR" --target comimo_tests -j "$(nproc)"
ctest --test-dir "$TSAN_DIR" --output-on-failure \
  -R 'ThreadPool|ParallelFor|EbBarMemoConcurrency' \
  -j "$(nproc)"

if [ "${CI_SANITIZE:-0}" = "1" ]; then
  echo "== sanitizers: full suite =="
  scripts/check_sanitized.sh "$ASAN_DIR"
fi

echo "== ci.sh: all gates passed =="
