#!/usr/bin/env python3
"""Explain3D benchmark: time to explanation under NOOPT and BATCH-100.

Run from the repository root:

    python3 perfbench/run.py --workload synth-n2000 --seed 7 --seconds 18 --trace 0

The first run builds the program and the benchmark from source
(perfbench/build.py); later runs reuse the build while the sources are
unchanged. The benchmark itself runs in one JVM (perfbench/src), which
prints progress and a header to stderr and the result as one JSON object on
the last line of stdout. This script checks that result against
BENCHMARK.json, prints a table of the metrics to stderr, and repeats the
JSON line as its own last line of stdout.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # the checkout keeps no __pycache__
import build  # noqa: E402  (perfbench/build.py)

BUILD_OUT = build.BUILD_OUT
RUN_TIMEOUT_S = 170
# The heap has a fixed size (-Xms = -Xmx): the full GC behind live_heap_mb
# otherwise shrinks it, and the next pass pays to grow it again, which made
# pass times vary by up to a factor of two between runs.
HEAP = "3g"
# The throughput collector on two threads runs no concurrent GC threads that
# compete with Spark's two task threads for the host's cores; passes were
# about 8% faster than under G1 and no more spread.
GC = ["-XX:+UseParallelGC", "-XX:ParallelGCThreads=2"]


def fail(msg):
    print(f"[perfbench] error: {msg}", file=sys.stderr)
    sys.exit(1)


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def run_jvm(args, spans_path):
    tmp = build.TMP
    os.makedirs(tmp, exist_ok=True)
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", *GC, "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}",
           "-cp", build.classpath(), "repro.perfbench.Bench",
           "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans_path]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    # Spark binds to the loopback address whatever interfaces the host has.
    env = {**os.environ, "SPARK_LOCAL_IP": "127.0.0.1", "SPARK_LOCAL_HOSTNAME": "localhost"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish in {RUN_TIMEOUT_S}s")
    finally:
        # On every way out, the JVM is stopped and has ended.
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = [x for x in out.splitlines() if x.strip()]
    if not lines:
        fail("benchmark printed no result")
    return json.loads(lines[-1])


def main():
    # A terminated run unwinds like a failed one, so the JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: fail("terminated"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="generator seed (default: the workload's own)")
    p.add_argument("--seconds", type=int, default=None, help="measurement time (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        digest = build.build()
    except build.BuildError as e:
        fail(str(e))

    seed = args.seed if args.seed is not None else "default"
    spans_path = os.path.join(BUILD_OUT, "spans", f"{args.workload}-seed{seed}.json")
    print("[perfbench] " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                        "heap": HEAP, "gc": GC, "git_commit": git_commit(), "source_digest": digest}),
          file=sys.stderr, flush=True)
    result = run_jvm(args, spans_path)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in declared}:
        fail(f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(m['name'] for m in declared)}")
    for m in declared:
        v = got[m["name"]]
        # A run whose checks failed may lack values (an exception leaves a
        # pair without a result); it is still reported, as incorrect.
        numeric = isinstance(v["value"], (int, float)) or (v["value"] is None and not result["correct"])
        if v["unit"] != m["unit"] or not numeric:
            fail(f"metric {m['name']} reported as {v}, declared unit {m['unit']}")
        direction = f"{m['better']} is better" if "better" in m else ""
        print(f"[perfbench] {m['name']:<40} {v['value'] if v['value'] is not None else float('nan'):>16.6g} "
              f"{m['unit']:<10} {direction}", file=sys.stderr)
    if args.trace:
        print(f"[perfbench] spans written to {os.path.relpath(spans_path, ROOT)}", file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
