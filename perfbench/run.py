#!/usr/bin/env python3
"""Builds and runs the wavetune end-to-end / per-layer benchmark.

One run (the benchmark contract):
    python3 perfbench/run.py --workload solve-cpu --seed 1 --seconds 10 --trace 0

Steadiness report (N runs with seeds seed..seed+N-1; per metric the median
and quartiles next to host.calib_rate, so host spread can be told apart
from program spread):
    python3 perfbench/run.py --workload offload-stream --seconds 30 --steadiness 5

The benchmark's own tests:
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def run_binary(workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout text)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{workload}-s{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def calib_rate(stdout):
    for line in stdout.splitlines():
        if line.startswith("# host.calib_rate="):
            return float(line.split("=", 1)[1].split()[0])
    return None


def spread_row(name, unit, values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return f"{name:<24} {unit:<9} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>9.2%}"


def steadiness(args):
    results, calibs = [], []
    for i in range(args.steadiness):
        seed = args.seed + i
        code, out = run_binary(args.workload, seed, args.seconds, args.trace)
        if code != 0:
            sys.stdout.write(out)
            sys.exit(f"perfbench: run with seed {seed} failed (exit {code})")
        result = json.loads(out.strip().splitlines()[-1])
        results.append(result["metrics"])
        calibs.append(calib_rate(out))
        summary = ", ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: host.calib_rate={calibs[-1]:.6g} {summary}", flush=True)
    if len(results) < 2:
        return
    print(f"\n{'metric':<24} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>9}")
    print(spread_row("host.calib_rate", "Mit/s", calibs))
    for name in sorted(results[0]):
        print(spread_row(name, results[0][name]["unit"], [r[name]["value"] for r in results]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N seeds and report each metric's median and quartiles")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_tests"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_tests")], cwd=ROOT).returncode)
    if not args.workload:
        parser.error("--workload is required")
    build(["perfbench"])
    if args.steadiness:
        steadiness(args)
        return
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
