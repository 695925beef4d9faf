#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve_lsh --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root, in Release. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when a build step or an answer check fails.
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    sys.stdout.flush()
    binary = os.path.join(out, "perfbench")
    # The benchmark writes its stores and traces under the build
    # directory's parent, inside the checkout.
    done = subprocess.run([binary, "--workdir", os.path.dirname(out)]
                          + sys.argv[1:], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
