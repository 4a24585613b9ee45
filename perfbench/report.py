#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json once untraced and once traced and
prints two tables: the end-to-end metrics (name, unit, direction, one column
per workload) and the per-layer metrics of the traced runs, with the
tracing overhead.

    python3 perfbench/report.py [--seed N] [--seconds S]

Without --seed each workload uses its own default generator seed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if r.returncode != 0:
        sys.exit(f"run.py failed on {workload} (trace {trace}) with exit code {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def table(title, metrics, results):
    names = list(results)
    print(f"\n{title}")
    print(f"{'metric':<38} {'unit':<10} {'better':<7} " + " ".join(f"{n:>16}" for n in names))
    for m in metrics:
        cells = []
        for n in names:
            v = results[n]["metrics"][m["name"]]["value"]
            cells.append(f"{v:>16.6g}" if v is not None else f"{'-':>16}")
        print(f"{m['name']:<38} {m['unit']:<10} {m['better']:<7} " + " ".join(cells))
    print(f"{'correct / failed of attempted':<57} " +
          " ".join(f"{str(r['correct']) + ' ' + str(r['failed']) + '/' + str(r['attempted']):>16}" for r in results.values()))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    untraced = {w: run(w, 0, args.seed, args.seconds) for w in workloads}
    traced = {w: run(w, 1, args.seed, args.seconds) for w in workloads}
    table("End-to-end metrics (untraced runs)", spec["end_to_end"], untraced)
    table("Per-layer metrics (traced runs)", spec["per_layer"], traced)


if __name__ == "__main__":
    main()
