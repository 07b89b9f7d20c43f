#!/usr/bin/env python3
"""Repository benchmark for comimo.

    python3 perfbench/run.py --workload <paper|ber|net|service> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the library and the workload
binary from source (Release) into $CARGO_TARGET_DIR or .bench_build,
runs the helper self-tests, then runs the workload in a fresh process.
With --trace 1 it runs the workload twice, untraced and traced, and
reports the per-layer metrics of the traced run plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "ber", "net", "service")
DEADLINE_S = 170.0  # a run, not counting a first build, ends within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def env(bdir):
    """The environment for every child: temporary files stay in bdir."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(bdir):
    """Configures once and builds; a no-op build takes about a second."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    steps.append([os.path.join(bdir, "perfbench_selftest")])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, env=env(bdir))
        if r.returncode != 0:
            log(r.stdout[-4000:])
            fail("step failed: %s" % " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """The commit, or a digest of the sources outside a git checkout."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unavailable (not a git checkout); source digest " + source_digest()


def short_path(path):
    """AF_UNIX socket paths are limited to 107 bytes: prefer a relative one."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


def run_workload(bdir, args, trace, started):
    tag = "%s-%d-%s" % (args.workload, args.seed, "traced" if trace else "timed")
    # The binary writes its spans and the service socket next to this.
    out = short_path(os.path.join(bdir, "results", tag + ".json"))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace else "0", "--out", out]
    # Own process group, so a timeout also stops the service client.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=env(bdir))
    try:
        text, _ = proc.communicate(
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s timed out" % args.workload)
    sys.stdout.write(text)
    if proc.returncode != 0:
        fail("workload %s exited with %d" % (args.workload, proc.returncode))
    with open(out) as f:
        return json.load(f)


def fmt(m):
    v = m["value"]
    if not m.get("finite", True):
        v = math.inf
    if not m.get("supported", True):
        return "unsupported (n=%d: fewer than 10 samples beyond)" % m["n"]
    return "%.6g %s  (n=%d)" % (v, m["unit"], m["n"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    bench = spec()
    bdir = build_dir()
    build(bdir)
    started = time.monotonic()  # the 180 s budget starts after the build

    timed = run_workload(bdir, args, False, started)
    runs = [timed]
    if args.trace:
        runs.append(run_workload(bdir, args, True, started))
    result = runs[-1]
    metrics = dict(result["metrics"])
    if args.trace:
        base = timed["metrics"]["wall_s"]["value"]
        traced = result["metrics"]["wall_s"]["value"]
        metrics["bench.trace_overhead_frac"] = {
            "value": traced / base - 1.0, "unit": "1", "n": 2,
            "finite": True, "supported": True}

    print("== perfbench %s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    record = dict(result["env"])
    record["git_commit"] = git_commit()
    print("env    " + json.dumps(record, sort_keys=True))
    print("config " + json.dumps(result["config"], sort_keys=True))
    for name in sorted(metrics):
        print("  %-36s %s" % (name, fmt(metrics[name])))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    invalid = [x for r in runs for x in r["invalid"]]
    for r in runs:
        for f in r["failures"]:
            print("  FAILED CHECK: " + f)
    for reason in invalid:
        print("  INVALID RUN: " + reason)
    print("  failed_frac %.6g (%d of %d operations)" %
          (failed / max(1, attempted), failed, attempted))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        got = metrics.get(name)
        if got is None:
            if not args.trace:
                fail("workload %s produced no %s" % (args.workload, name))
            # A layer this workload never calls: zero time, zero count.
            out[name] = {"value": 0, "unit": m["unit"]}
            continue
        value = got["value"] if got.get("finite", True) else None
        if value is None or not got.get("supported", True):
            value = 0
        out[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0 and not invalid,
                      "attempted": max(1, attempted),
                      "failed": failed + (1 if invalid else 0),
                      "metrics": out}))


if __name__ == "__main__":
    main()
