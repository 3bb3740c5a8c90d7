#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Run from the root of a proteus checkout:

    python3 perfbench/run.py --workload seek_cold --seed 1 --seconds 18 --trace 0

Workloads: seek_cold, multiseek_warm, ingest_mixed (see METRICS.md).
The harness is built in .bench_build/ (Release) on first use. The last
line of stdout is the harness's JSON result; build output goes to stderr.
Any other flags (e.g. --keys N) are passed to the harness unchanged.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("seek_cold", "multiseek_warm", "ingest_mixed")
BUILD_DIR = ".bench_build"
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds the harness once per checkout (locked, so
    concurrent runs do not build over each other). Returns its path."""
    build_dir = os.path.join(root, BUILD_DIR, "cmake")
    os.makedirs(build_dir, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(root, BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(os.path.join(root, BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
             "--target", "perfbench_harness"],
            check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench_harness")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")

    root = os.getcwd()
    for required in ("CMakeLists.txt", os.path.join("src", "lsm", "db.h")):
        if not os.path.exists(os.path.join(root, required)):
            fail(f"run from the root of a proteus checkout ({required} is missing)")
    try:
        harness = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    run_dir = os.path.join(root, BUILD_DIR, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    trace_out = os.path.join(
        root, BUILD_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--dir", os.path.join(run_dir, "db"), "--trace-out", trace_out]
    try:
        proc = subprocess.run(command + extra, stdout=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail(f"harness printed no result line (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"perfbench: a check failed (exit code {proc.returncode})",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
