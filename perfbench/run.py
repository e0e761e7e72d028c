#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rerank --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the build tree goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
checkout root) and is reused by later runs. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("rerank", "fullrank", "hot-cache")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (first run only) and builds serve_bench; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "serve_bench",
                  "-j", "3"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    work_dir = os.path.join(out, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--models", os.path.join(ROOT, "bench_cache"),
           "--work-dir", work_dir]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        sys.exit("perfbench: serve_bench timed out")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
