#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_commit --seed 1 --seconds 30 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/, and is reused when it is up to date.  Build output goes
to standard error, so the last line of standard output is the benchmark's
result object.  Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
