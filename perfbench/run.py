#!/usr/bin/env python3
"""Build the dir2b benchmark program and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The sources are found relative to this file, so it runs from any
directory of a dir2b checkout.  The first run configures and builds a
Release build of src/ and perfbench/ under .bench_build/perfbench
(under $CARGO_TARGET_DIR/perfbench when that variable is set); later
runs only bring that build up to date.  Build output goes to stderr,
so the last line of stdout is the program's JSON result.
perfbench/README.md documents the workloads and the metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("func_sharing", "func_scatter", "timed_crossbar", "sweep_mixed")
# A run measures for --seconds, then finishes its last repetition; one
# still going after this long is stuck.
RUN_TIMEOUT_S = 170
FAILED = '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'


def parse_args():
    p = argparse.ArgumentParser(description="Build and run the dir2b benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be 1..120")
    return args


def build():
    """Configure on first use, then build; return the build directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "CMakeLists.txt")):
        sys.exit("run.py: no dir2b sources at %s" % src)
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit("run.py: build step failed: %s" % e)
    return out


def main():
    args = parse_args()
    out = build()
    cmd = [os.path.join(out, "dir2b_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=out, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: dir2b_perfbench still running after %d s; stopped it"
              % RUN_TIMEOUT_S, file=sys.stderr)
        print(FAILED)
        return 1
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print("run.py: dir2b_perfbench exited with status %d" % proc.returncode,
              file=sys.stderr)
        print(FAILED)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
