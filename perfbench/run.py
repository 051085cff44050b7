#!/usr/bin/env python3
"""Build the benchmark against the repository's library in Release, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build lives in .bench_build/ (or in
$CARGO_TARGET_DIR when that is set) and is reused by later runs. Build output
goes to stderr; stdout carries the benchmark's metric lines and, last, its one
JSON result line. The exit code is the benchmark's own (nonzero on a failed
check), or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench", "ebmf"],
        check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "perfbench"),
               "--ebmf", os.path.join(build_dir, "ebmf", "ebmf")] + sys.argv[1:]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
