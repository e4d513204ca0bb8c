#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload {lifetime,attack,service,tenants} \
        [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (and with it the program's sources under src/) in
Release mode into .bench_build/perfbench, then runs one workload. The
last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; build output and
progress go to standard error. With --trace 1 the span-accounting unit
test runs first. Exits non-zero, without a result line, if the build
or any correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lifetime", "attack", "service", "tenants")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "span_test"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20170618)
    # BENCHMARK.json's run_seconds: the bounds were measured at this length.
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if args.trace:
        test = subprocess.run([os.path.join(BUILD, "span_test")],
                              stdout=sys.stderr, stderr=sys.stderr)
        if test.returncode != 0:
            print("perfbench: span_test failed", file=sys.stderr)
            return 1

    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    bench = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans-dir", spans_dir])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
