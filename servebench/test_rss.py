#!/usr/bin/env python3
"""peak_rss_mb must measure the benchmark program, not whoever launched it.

getrusage's ru_maxrss survives exec, so a program started by a large parent
reports the parent's high-water mark. The harness reads VmHWM from
/proc/self/status, which starts afresh at exec. This test runs the harness,
and the run.py launcher, from this small process and from a parent that
holds BALLAST_MB, and checks that peak_rss_mb stays the same. It also checks
that the harness's own ru_maxrss line does see the ballast, so the test
would catch a return to ru_maxrss.

Run from the root of a checkout (it builds the harness first if needed):

    python3 servebench/test_rss.py
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_PY = os.path.join(HERE, "run.py")
HARNESS = os.path.join(ROOT, ".bench_build", "servebench", "servebench")
ARGS = ["--workload", "flap-gr512", "--seed", "1", "--seconds", "1",
        "--trace", "0"]
BALLAST_MB = 150
# VmHWM of one program moves by a few hundred kB between runs.
TOLERANCE_MB = 1.0

# A parent that touches BALLAST_MB of memory, then runs its arguments.
BALLAST_PARENT = f"""
import subprocess, sys
ballast = bytearray({BALLAST_MB} << 20)
for i in range(0, len(ballast), 4096):
    ballast[i] = 1
sys.exit(subprocess.run(sys.argv[1:]).returncode)
"""


def run(cmd, ballast):
    if ballast:
        cmd = [sys.executable, "-c", BALLAST_PARENT] + cmd
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    maxrss = float(re.search(r"ru_maxrss = ([0-9.]+) MB", p.stdout).group(1))
    return result["metrics"]["peak_rss_mb"]["value"], maxrss


class PeakRssIsTheProgramsOwn(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # Builds the harness on a fresh checkout.
        cls.plain, _ = run([sys.executable, RUN_PY] + ARGS, ballast=False)

    def test_harness_under_large_parent(self):
        rss, maxrss = run([HARNESS] + ARGS, ballast=True)
        self.assertGreaterEqual(maxrss, 100.0,
                                "the ballast parent did not reach the child")
        self.assertLess(abs(rss - self.plain), TOLERANCE_MB,
                        f"peak_rss_mb {rss} under a {BALLAST_MB} MB parent, "
                        f"{self.plain} without")

    def test_launcher_under_large_parent(self):
        rss, _ = run([sys.executable, RUN_PY] + ARGS, ballast=True)
        self.assertLess(abs(rss - self.plain), TOLERANCE_MB,
                        f"peak_rss_mb {rss} under a {BALLAST_MB} MB parent, "
                        f"{self.plain} without")


if __name__ == "__main__":
    unittest.main()
