#!/usr/bin/env python3
"""Builds dear_e2e from this checkout and runs one benchmark workload.

    python3 benchmark/run.py --workload W --seed N --seconds T --trace 0|1

The first run configures and builds benchmark/ (and the repository's
dear_core library under it) in Release mode into build-bench/; later runs
only check that the build is up to date. The benchmark's metric lines are
passed through, and the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). The exit status is 0 only when every
correctness check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step, showing its output only when it fails."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the repository sources (CMakeLists.txt and src/) are not next to benchmark/")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quiet(configure)
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "dear_e2e", "-j", str(jobs)])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    result_path = BUILD / f"result-{args.workload}.json"
    cmd = [str(BUILD / "dear_e2e"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(result_path)]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dear_e2e did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    # dear_e2e exits 1 when a correctness check failed and still reports.
    if proc.returncode not in (0, 1) or not result_path.is_file():
        fail(f"dear_e2e failed with exit status {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"dear_e2e reported no {metric['name']} in {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
