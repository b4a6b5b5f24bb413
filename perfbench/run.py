#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
perfbench/lbbench.exe with dune from the checkout's own sources, hands it
the host facts it cannot read itself (online processors, L2/L3 sizes),
and relays its output.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; with --trace 0 the metrics
are the end_to_end list of BENCHMARK.json, with --trace 1 the per_layer
list.  Any build failure, crash, timeout or malformed result exits
non-zero without printing a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "lbbench.exe")
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        return 0


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}, [w["name"] for w in spec["workloads"]]


def check_result(line, expected):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise ValueError("metrics %s differ from BENCHMARK.json %s" % (got, expected))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError("metric %s has no numeric value" % name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    started = time.monotonic()

    try:
        expected, workloads = expected_metrics(args.trace)
    except (OSError, KeyError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads)))

    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--display", "quiet", "./perfbench/lbbench.exe"],
            stdout=subprocess.DEVNULL,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % build.returncode)

    # The first run of a checkout may spend most of its time building;
    # every run still gets the whole deadline for measuring.
    built = time.monotonic()
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--l2-bytes", str(getconf("LEVEL2_CACHE_SIZE")),
        "--l3-bytes", str(getconf("LEVEL3_CACHE_SIZE")),
    ]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_DEADLINE_S)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("benchmark exited %d" % run.returncode)
    try:
        check_result(lines[-1], expected)
    except (ValueError, KeyError, TypeError) as e:
        sys.stderr.write(run.stdout)
        fail("malformed result: %s" % e)
    for line in lines[:-1]:
        print(line)
    print("build %.1f s, run %.1f s" % (built - started, time.monotonic() - built))
    print(lines[-1])


if __name__ == "__main__":
    main()
