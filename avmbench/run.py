#!/usr/bin/env python3
"""Build and run one record-and-audit benchmark run.

Run from the repository root:

    python3 avmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

Builds avmbench (CMake, Release) from this checkout's sources into
.bench_build/avmbench, then runs it. Build output goes to stderr; the run's
last stdout line is its JSON result. Exits non-zero without a result when
the sources are missing, the build fails, or any checked outcome is wrong.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "avmbench")


def fail(msg):
    print("avmbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "scenario.h")):
        fail("system sources not found under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--parallel", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "avmbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = ap.parse_args()
    # A terminated runner takes its build or measurement process with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        fail("--seed must be >= 0")

    binary = build()
    work_dir = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
