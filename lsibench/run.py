#!/usr/bin/env python3
"""Builds the LSI serving benchmark from this checkout and runs one workload.

    python3 lsibench/run.py --workload search-cold --seed 1 --seconds 10 --trace 0

The benchmark binary is compiled from lsibench/ and the repository's
src/ into $CARGO_TARGET_DIR (default .bench_build) under the checkout
root; later runs reuse the build. Build output goes to stderr. The last
line on stdout is the run's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    """Configures and builds lsibench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("lsibench: no LSI sources next to lsibench/", file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "--target", "lsibench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("lsibench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    binary = os.path.join(out, "lsibench")
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = os.path.join(build_dir(), "lsibench")
    binary = build(out)
    if binary is None:
        return 1
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", results]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("lsibench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        print("lsibench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
