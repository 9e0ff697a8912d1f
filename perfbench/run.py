#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_pass (and the recap library it links) from source
into .bench_build/perfbench, then runs the workload in fresh
perfbench_pass processes -- one process per pass, so the process-wide
compiled-table cache never lets one pass warm another -- as many as
fit in S seconds (at least one pass). Prints an info line, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports every end-to-end metric of BENCHMARK.json as the
median over the passes. --trace 1 runs one untraced and one traced
pass, checks that both produced the same verdicts and counts, and
reports every per-layer metric from the traced pass, the tracing
overhead among them.

Exit status is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PASS_BIN = BUILD_DIR / "perfbench_pass"
PASS_LIMIT_S = 170.0  # a run must end within 180 s


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    with open(spec_path) as f:
        return json.load(f)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("recap sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_pass", "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)


def run_pass(workload, seed, trace, timeout):
    """One pass process; returns (result dict, wall seconds)."""
    spans = BUILD_DIR / f"spans-{workload}-{seed}.json"
    cmd = [str(PASS_BIN), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--spans", str(spans)]
    t0 = time.monotonic()
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} pass exceeded {timeout:.0f} s", 4)
    wall = time.monotonic() - t0
    lines = res.stdout.strip().splitlines()
    if res.returncode not in (0, 1) or not lines:
        fail(f"perfbench_pass exited with {res.returncode} and no result", 4)
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    build()  # perfbench_pass rejects an unknown workload name

    start = time.monotonic()
    passes = []
    if args.trace:
        passes.append(run_pass(args.workload, args.seed, 0, PASS_LIMIT_S))
        left = PASS_LIMIT_S - (time.monotonic() - start)
        passes.append(run_pass(args.workload, args.seed, 1, left))
    else:
        # Another pass only when it should still end within --seconds
        # (the first pass always runs, however long it takes).
        while True:
            left = PASS_LIMIT_S - (time.monotonic() - start)
            passes.append(run_pass(args.workload, args.seed, 0, left))
            elapsed = time.monotonic() - start
            slowest = max(w for _, w in passes)
            if elapsed + slowest > min(args.seconds, PASS_LIMIT_S):
                break

    results = [r for r, _ in passes]
    correct = all(r["correct"] for r in results)
    # Simulated statistics and verdicts are deterministic for a seed:
    # every pass, traced or not, must report the same counts.
    for r in results[1:]:
        if r["counts"] != results[0]["counts"]:
            diff = sorted(k for k in set(r["counts"]) | set(results[0]["counts"])
                          if r["counts"].get(k) != results[0]["counts"].get(k))
            print(f"perfbench: counts differ between passes: {diff[:8]}",
                  file=sys.stderr)
            correct = False

    if args.trace:
        traced = results[1]
        layers = dict(traced["layers"])
        # Workloads that build their spans after the run (queryd-mix)
        # pay tracing only in the traced pass's own timings.
        layers.setdefault("trace.overhead_s",
                          traced["end_to_end"]["result_s"] -
                          results[0]["end_to_end"]["result_s"])
        entries = spec["per_layer"]
        unknown = set(layers) - {m["name"] for m in entries}
        if unknown:
            fail(f"perfbench_pass reported undeclared layer metrics {sorted(unknown)}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in entries}
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]] for r in results]
            metrics[m["name"]] = {"value": statistics.median(values),
                                  "unit": m["unit"]}

    info = {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "passes": len(results),
        "pass_seconds": [round(w, 3) for _, w in passes],
        "env": results[0]["env"],
        "detail": {k: statistics.median(r["detail"].get(k, 0.0) for r in results)
                   for k in results[0]["detail"]},
        "counts": results[0]["counts"] if len(results[0]["counts"]) <= 40
        else f"{len(results[0]['counts'])} entries",
    }
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
