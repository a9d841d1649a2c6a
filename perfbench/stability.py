#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/stability.py --workloads solve-large,serve-small \
        --seeds 1-10 [--sets 2] [--seconds S] [--trace 0|1]

Runs `perfbench/run.sh` once per seed, workload and set. With two sets
the second uses seeds 1000 higher, and the sets alternate run by run, so
both see the same stretches of the host. For each set, workload and
metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)` and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json; with two sets, also how
much worse the second median is than the first. Each run's host
diagnostics and wall time are printed beside its metrics. Exits non-zero
if any run fails or prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """(Q3 - Q1) / median, with Python's default (exclusive) quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    host = {l.split()[0]: float(l.split()[1]) for l in lines if l.strip().startswith("host.")}
    host["elapsed_s"] = elapsed
    return json.loads(lines[-1]), host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    for i, seed in enumerate(args.seeds):
        # Alternate the workload order so a slow stretch of the host does
        # not always land on the same workload.
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            for k in range(args.sets):
                s = seed + 1000 * k
                result, host = run_once(w, s, seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {s}: {result['failed']} failed")
                line = " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items())
                line += "".join(f" [{n}={v:.4g}]" for n, v in host.items())
                print(f"{w} set {k + 1} seed {s}: {line}", flush=True)
                for name, m in result["metrics"].items():
                    values[k][w].setdefault(name, []).append(m["value"])
    for w in workloads:
        for k in range(args.sets):
            print(f"\n{w}, set {k + 1} ({len(args.seeds)} runs, {seconds} s each)")
            for name, v in values[k][w].items():
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4) if len(v) >= 2 else (med, med, med)
                s = spread(v) if len(v) >= 2 else 0.0
                bound = metrics.get(name, {}).get("bound")
                mark = "" if bound is None else f" bound {bound} ({s / bound:.2f} of it)"
                if k == 1 and name in metrics:
                    first = statistics.median(values[0][w][name])
                    mark += f"; {worsening(first, med, metrics[name]['better']):+.4f} vs set 1"
                print(f"  {name:<18} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                      f"spread {s:.4f}{mark}")


if __name__ == "__main__":
    main()
