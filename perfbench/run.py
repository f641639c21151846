#!/usr/bin/env python3
"""Build and run the DataNet benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload select-scan --seed 1 --seconds 24 \
        --trace 0

Configures and builds perfbench/ (which compiles the repository's libraries
from src/) into $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The last line of standard output is the JSON result; build output
goes to standard error. Exits non-zero when the build fails, a workload
fails to run, or any answer is wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("select-scan", "serve-small", "ingest-recover")
RUN_TIMEOUT_S = 170


def build(root, build_dir):
    bench_build = os.path.join(build_dir, "perfbench")
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench_build,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", bench_build, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(bench_build, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", os.path.join(build_dir, "trace",
                                       f"{args.workload}-seed{args.seed}.tsv"),
           "--tmp-dir", os.path.join(build_dir, "tmp",
                                     f"{args.workload}-{os.getpid()}")]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
