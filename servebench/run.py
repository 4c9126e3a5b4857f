#!/usr/bin/env python3
"""Build and run the routing-daemon benchmark.

Run from the root of a checkout:

    python3 servebench/run.py --workload flap-gr512 --seed 1 --seconds 50 --trace 0

The first run configures and builds servebench/ (which compiles the library
from src/) into .bench_build/servebench; later runs rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
harness's JSON result. The exit code is the harness's: 0 only when every
output check passed. servebench/README.md describes the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
HARNESS = os.path.join(BUILD, "servebench")
TRACE_OUT = os.path.join(ROOT, ".bench_build", "servebench-out")
# A run must end within 180 s; the harness ends well within this.
HARNESS_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mrt", "serve", "serve.hpp")):
        sys.exit("servebench: no library sources under src/; run from the root "
                 "of a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "servebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"servebench: build failed: {e}")
    cmd = [HARNESS, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--out", TRACE_OUT]
    try:
        rc = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"servebench: harness did not finish in {HARNESS_TIMEOUT_S} s")
    sys.exit(rc if rc >= 0 else 1)


if __name__ == "__main__":
    main()
