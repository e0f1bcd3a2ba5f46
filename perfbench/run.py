#!/usr/bin/env python3
"""Builds and runs the SCGuard repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
two drivers (Release) under .bench_build/perfbench; later calls rebuild
incrementally. --trace 0 runs the end-to-end driver, --trace 1 the traced
driver, whose spans go to .bench_build/perfbench/trace-<workload>.json.
The driver's last stdout line is the result object; build output goes to
stderr. Exits non-zero, without a result, when the build or a check fails.
See README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("batch-1m", "service-100k")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: SCGuard sources not found beside perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build("perfbench_trace" if args.trace else "perfbench_e2e")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    out = done.stdout.rstrip("\n")
    if done.returncode != 0:
        # Keep the failing run's figures visible, but not as a result line.
        sys.stderr.write(out + "\n")
        sys.exit(f"perfbench: {args.workload} failed "
                 f"(exit {done.returncode})")
    print(out, flush=True)


if __name__ == "__main__":
    main()
