#!/usr/bin/env python3
"""presto's benchmark: host cost of four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 20 --trace 0

It builds perfbench/ (a Go module of its own) into .bench_build/perfbench,
then runs passes of the workload, each in a fresh process, until --seconds
have been measured. The last line of standard output is one JSON object:
with --trace 0 it carries the median of each end-to-end metric over the
passes; with --trace 1 it carries the per-layer metrics of one traced pass
plus trace.overhead_s, the traced pass's wall time minus that of an
untraced pass made just before it. Every other line is a pass's own JSON,
keyed by host shape (NumCPU, GOMAXPROCS, Go version).

The program's outputs are checked in every pass (goldens, chaos oracle,
cstar scalars); an op that errs or mismatches counts in "failed".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-figures", "kilonode", "predict", "chaos-band")

# A run must end within 180 s: no pass starts unless the previous pass's
# duration says it ends within BUDGET_S, and no pass outlives PASS_TIMEOUT_S.
BUDGET_S = 150
PASS_TIMEOUT_S = 120
# Set-up-only processes per untraced run, on top of each pass's own set-up:
# setup_s is the median of all of them.
SETUP_PROBES = 8


def go_env():
    """Keeps the Go toolchain's caches and config inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    subprocess.run(["go", "build", "-trimpath", "-o", BIN, "."], cwd=HERE,
                   env=go_env(), stdout=sys.stderr, check=True,
                   timeout=850)


def worker_env():
    """Default runtime settings: no GC, memory-limit or debug overrides."""
    env = dict(os.environ)
    for k in ("GOGC", "GOMEMLIMIT", "GODEBUG"):
        env.pop(k, None)
    return env


def run_pass(workload, seed, k, mode=None):
    """Runs pass k of a run in a fresh process and returns its JSON, or None.
    mode is None (untraced), "-trace" or "-setup-only"."""
    cmd = [BIN, "-workload", workload, "-seed", str(seed), "-pass", str(k), "-root", ROOT]
    if mode:
        cmd.append(mode)
    cmd += ["-t0", str(time.time_ns())]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                           timeout=PASS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S}s", file=sys.stderr)
        return None
    if p.returncode != 0 or not p.stdout.strip():
        print(f"pass exited {p.returncode}", file=sys.stderr)
        return None
    res = json.loads(p.stdout.strip().splitlines()[-1])
    print(json.dumps(res, sort_keys=True))
    for f in res.get("failures") or []:
        print("FAILED:", f, file=sys.stderr)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    passes, crashed = [], 0
    if args.trace:
        base = run_pass(args.workload, args.seed, 0)
        traced = run_pass(args.workload, args.seed, 0, "-trace")
        crashed = (base is None) + (traced is None)
        passes = [r for r in (base, traced) if r is not None]
        if base is None or traced is None:
            metrics = None
        else:
            metrics = dict(traced["metrics"])
            metrics["trace.overhead_s"] = {
                "value": traced["wall_s"] - base["wall_s"],
                "unit": "s"}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            r = run_pass(args.workload, args.seed, 0, "-setup-only")
            if r is None:
                crashed += 1
            else:
                setups.append(r["metrics"]["setup_s"]["value"])
        # Whole passes, at least one; no pass starts that the last one's
        # duration says would end after --seconds.
        start = time.monotonic()
        while True:
            t = time.monotonic()
            r = run_pass(args.workload, args.seed, len(passes))
            if r is None:
                crashed += 1
                break
            passes.append(r)
            took = time.monotonic() - t
            if time.monotonic() - start + took > min(args.seconds, BUDGET_S):
                break
        metrics = None
        if passes:
            metrics = {}
            for name, v in passes[0]["metrics"].items():
                metrics[name] = {
                    "value": statistics.median(p["metrics"][name]["value"] for p in passes),
                    "unit": v["unit"]}
            setups += [p["metrics"]["setup_s"]["value"] for p in passes]
            metrics["setup_s"]["value"] = statistics.median(setups)

    if metrics is None:
        print("no complete pass", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes) + crashed
    failed = sum(p["failed"] for p in passes) + crashed
    shapes = {json.dumps(p["host"], sort_keys=True) for p in passes}
    print(json.dumps({"host": [json.loads(s) for s in sorted(shapes)],
                      "passes": len(passes), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
