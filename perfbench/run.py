#!/usr/bin/env python3
"""Runs the CALCioM repository benchmark.

Builds the CALCioM library and the benchmark driver from this checkout's
sources into .bench_build/perfbench, runs one workload, and passes the
driver's output through: the last line of standard output is the result
JSON. Build logs and per-campaign fingerprints go to standard error.

    python3 perfbench/run.py --workload io_shared --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

--self-test is the benchmark's own test: it runs every workload small,
untraced and traced, and checks the result format, the metric names and
units against BENCHMARK.json, and that the untraced, replica (the other
worker count) and traced fingerprints agree.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "calciom_perfbench")
WORKLOADS = ["flows_sharded", "io_shared", "replay_cluster", "replay_session"]
# A run must end within 180 s; keep a margin for start-up and teardown.
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures and builds the driver; build output goes to stderr."""
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", "4"],
    ]
    for cmd in steps:
        sys.stderr.flush()
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_driver(workload, seed, seconds, trace, small, capture):
    """Runs the driver once; None if it had to be killed for overrunning."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        cmd.append("--short")
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD, f"trace-{workload}.json")]
    pipe = subprocess.PIPE if capture else None
    try:
        # On timeout, subprocess.run kills the driver and waits for it.
        return subprocess.run(cmd, stdout=pipe, stderr=pipe, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def check_result(proc, expected_units):
    """Problems with one driver run's output; empty when it is well formed."""
    if proc is None:
        return ["timed out"]
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        return [f"last line is not JSON: {err}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("outputs failed their checks")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_units):
        missing = sorted(set(expected_units) - set(metrics))
        extra = sorted(set(metrics) - set(expected_units))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if metric.get("unit") != expected_units.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def self_test():
    """Runs every workload small and checks its output; returns the exit
    code."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for metric in bench["end_to_end"] + bench["per_layer"]:
        if not NAME_RE.match(metric["name"]) or not UNIT_RE.match(metric["unit"]):
            print(f"self-test: bad name or unit {metric}", file=sys.stderr)
            failures += 1
    for workload in [w["name"] for w in bench["workloads"]]:
        fingerprints = set()
        problems = []
        for trace in (0, 1):
            proc = run_driver(workload, 7, 1, trace, small=True, capture=True)
            problems += [f"trace {trace}: {p}"
                         for p in check_result(proc, units[trace])]
            if proc is not None:
                fingerprints |= {line.split()[4]
                                 for line in proc.stderr.splitlines()
                                 if line.startswith("fingerprint ")}
        if len(fingerprints) != 1:
            problems.append(f"fingerprints differ: {sorted(fingerprints)}")
        verdict = "ok" if not problems else "FAILED " + "; ".join(problems)
        print(f"self-test {workload}: {verdict}", file=sys.stderr)
        failures += len(problems)
    print(f"self-test: {'passed' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small shapes, for quick checks")
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    proc = run_driver(args.workload, args.seed, args.seconds, args.trace,
                      args.short, capture=False)
    if proc is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
