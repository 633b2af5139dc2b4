#!/usr/bin/env python3
"""End-to-end benchmark of the prtree library.

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, runs one workload and prints, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (the traced run also writes its spans
to .bench_build/perfbench/spans-<workload>.csv).

    python3 perfbench/run.py --workload query-warm --seed 1 --seconds 25
    python3 perfbench/run.py --workload all        # every workload in turn

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "prbench")
WORKLOADS = ["bulkload", "query-warm", "mixed"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; build output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "prbench",
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(workload, seed, seconds, trace, scale):
    """Runs one workload; returns (provenance line, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", repr(scale), "--dir", BUILD]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s.csv" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s exited with %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    expected = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if expected is not None and got != expected:
        fail("%s metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            workload, sorted(set(expected) - set(got)),
            sorted(set(got) - set(expected))))
    return lines[-2], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies data and query-set sizes (tests: 0.02)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.scale <= 0:
        fail("--seconds and --scale must be positive")

    build()
    if args.workload != "all":
        prov, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace, args.scale)
        print(prov)
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        prov, result = run_one(workload, args.seed, args.seconds, args.trace,
                               args.scale)
        print(prov)
        for name, m in result["metrics"].items():
            print("  %-12s %-36s %16.6g %s" % (workload, name, m["value"],
                                               m["unit"]))
            combined["metrics"]["%s.%s" % (workload, name)] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
