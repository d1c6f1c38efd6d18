#!/usr/bin/env python3
"""Builds and runs the LFS wall-clock benchmark (lfsbench).

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload hotcold --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (and the src/ libraries it
links) with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset; later runs only check the build is current. Build output
goes to stderr. lfsbench runs in that build directory, so a traced run
(--trace 1) leaves its spans there as spans-<workload>.tsv. The benchmark's
own output is passed through; its last line is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("smallfile", "hotcold", "mt_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ tree beside perfbench/; run from a full checkout")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "lfsbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "lfsbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=out_dir, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: lfsbench did not finish in %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: lfsbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    except (IndexError, ValueError):
        missing = {"result line"}
    if missing:
        sys.exit("perfbench: lfsbench printed no valid result (%s)" % ", ".join(sorted(missing)))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
