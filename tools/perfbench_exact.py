#!/usr/bin/env python3
"""Check perfbench's exact metrics against BENCH_perfbench.json.

Usage (from the repository root):

    python3 tools/perfbench_exact.py [--workload W] [--seed S]

For every (workload, seed) run recorded in BENCH_perfbench.json, or only
those that --workload / --seed select, runs

    python3 perfbench/run.py --workload W --seed S --seconds 1

and parses the JSON result line it prints last. Each exact metric must
equal the recorded value as a parsed double: these are simulation
results, independent of run length and host. The host metrics are
printed beside the recorded ones but are not checked, because the
recorded values come from one machine.

Exits 1 if a run fails, reports "correct": false, or differs on an exact
metric; each failure is printed with its metric, workload and seed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXACT = ("accepted_ratio", "lifetime_frac", "victim_lifetime_frac",
         "swap_ratio", "sim_write_cycles", "sim_p50_cycles",
         "sim_p99_cycles", "journal_bytes_per_write")
HOST = ("setup_s", "writes_per_s", "peak_rss_mb")


def run_perfbench(workload, seed):
    """Returns the parsed result line, or None if the run failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check(run):
    """Runs one recorded (workload, seed); returns the failure messages."""
    workload, seed = run["workload"], run["seed"]
    where = f"workload {workload} seed {seed}"
    result = run_perfbench(workload, seed)
    if result is None:
        return [f"{where}: perfbench/run.py failed or printed no result"]
    failures = []
    if result.get("correct") is not True:
        failures.append(f"{where}: correct is {result.get('correct')}")
    want = run["result"]["metrics"]
    got = result.get("metrics", {})
    for name in EXACT:
        if name not in want:
            continue
        if name not in got:
            failures.append(f"{name} missing ({where})")
            continue
        recorded = float(want[name]["value"])
        now = float(got[name]["value"])
        if now != recorded:
            failures.append(
                f"{name} = {now!r}, recorded {recorded!r} ({where})")
    for name in HOST:
        if name in got and name in want:
            print(f"  {where}: {name} {got[name]['value']:.6g} "
                  f"(recorded {want[name]['value']:.6g}, not checked)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCH_perfbench.json")) as f:
        baseline = json.load(f)
    runs = [r for r in baseline["runs"]
            if args.workload in (None, r["workload"])
            and args.seed in (None, r["seed"])]
    if not runs:
        print("perfbench_exact: no recorded run matches", file=sys.stderr)
        return 1

    failures = []
    for run in runs:
        print(f"perfbench_exact: {run['workload']} seed {run['seed']}",
              flush=True)
        failures += check(run)
    for message in failures:
        print(f"perfbench_exact: MISMATCH {message}")
    if failures:
        return 1
    print(f"perfbench_exact: {len(runs)} runs, every exact metric matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
