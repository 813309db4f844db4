#!/usr/bin/env python3
"""Steadiness check for the federation benchmark.

Runs each workload once per seed and prints, for every metric, the median
and the spread between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json. It then reruns the first seed and checks that every
count repeats exactly: ``msgs_per_stmt`` and ``wire_bytes_per_stmt`` for
``--trace 0``, every per-layer count for ``--trace 1``.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads vital_writes_0ms
    python3 perfbench/steady.py --runs 3 --trace 1

``--bin`` runs an already built binary instead of ``cargo run``.
Exit status 1 means a run failed, a check failed, a count did not repeat,
or a spread exceeded its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counts that must repeat exactly for a repeated seed, per mode.
EXACT_E2E = ["msgs_per_stmt", "wire_bytes_per_stmt"]
TIMING_UNITS = {"us", "ms", "s", "1/s", "MB"}
TIMING_NAMES = {"trace.overhead_frac"}


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"run failed ({p.returncode}): {' '.join(args)}\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        failed = [l for l in p.stdout.splitlines() if l.startswith("CHECK FAILED")]
        print(f"  {workload} seed {seed}: correct=false\n    " + "\n    ".join(failed))
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--bin", default="")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = [a.bin] if a.bin else bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in names:
        seeds = [a.first_seed + i for i in range(a.runs)]
        results = [run_once(cmd, w, s, seconds, a.trace) for s in seeds]
        ok &= all(r["correct"] for r in results)
        print(f"== {w}: {a.runs} runs of {seconds} s, --trace {a.trace}, "
              f"{results[0]['attempted']} statements per run")
        print(f"  {'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values) if len(values) >= 2 else (values[0], 0.0)
            bound = bounds.get(name) if a.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s":
                if sp > bound:
                    flag, ok = "OVER BOUND", False
                elif sp > bound / 3:
                    flag = "above bound/3"
            unit = m["unit"]
            bound_s = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<36} {med:>14.4f} {sp:>8.4f} {bound_s:>6} {unit} {flag}")
        again = run_once(cmd, w, seeds[0], seconds, a.trace)
        if a.trace == 0:
            exact = EXACT_E2E
        else:
            exact = [n for n, m in again["metrics"].items()
                     if m["unit"] not in TIMING_UNITS and n not in TIMING_NAMES]
        for name in exact:
            first, second = results[0]["metrics"][name]["value"], again["metrics"][name]["value"]
            if first != second:
                ok = False
                print(f"  NOT EXACT: {name} {first!r} vs {second!r} for seed {seeds[0]}")
        print(f"  exact repeat of seed {seeds[0]}: {len(exact)} counts checked")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
