"""Steadiness report: runs the benchmark repeatedly and prints, for every
end-to-end metric of every workload, the median and quartiles of its values
next to the metric's bound; then one traced run per workload with every
per-layer metric, the per-layer self times and the tracing overhead.

Usage (from the repository root):
    python3 perfbench/report.py [--runs 10] [--first-seed 1] [--sets 1]

The spread of a metric is (q3 - q1) / median over the runs of one set, with
the quartiles of statistics.quantiles(values, n=4). A metric is steady when
its spread is below a third of its bound. With --sets 2, the second set's
median is compared with the first's: it may be worse by at most the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    return (second - first) / first if better == "lower" else (first - second) / first


def report_set(bench, workloads, seeds, label) -> dict:
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            meta, res = run_once(bench, w, seed, 0)
            results[w].append({"meta": meta, "result": res})
            vals = {k: round(v["value"], 5) for k, v in res["metrics"].items()}
            print(f"  [{label}] {w} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']} {vals}", flush=True)
    medians = {}
    for w in workloads:
        runs = results[w]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n{w} ({label}, {len(runs)} runs, {attempted} attempted, error_rate "
              f"{failed / attempted:.4g})")
        print(f"  {'metric':<16}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  steady")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, sp = spread(values)
            medians[(w, m["name"])] = med
            steady = "yes" if sp < m["bound"] / 3 else "NO"
            print(f"  {m['name']:<16}{m['unit']:<6}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{sp:>9.4f}{m['bound']:>7}  {steady}")
        rates = {}
        for r in runs:
            for k, v in r["meta"]["phase_rates"].items():
                rates.setdefault(k, []).append(v)
        for k, v in rates.items():
            print(f"  phase rate {k}: median {statistics.median(v):.5g}")
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    sets = []
    seed = args.first_seed
    for k in range(args.sets):
        seeds = list(range(seed, seed + args.runs))
        seed += args.runs
        sets.append(report_set(bench, workloads, seeds, f"set {k + 1}"))
    if len(sets) > 1:
        print("\nmedian drift, second set against first (worse share / bound)")
        for w in workloads:
            for m in bench["end_to_end"]:
                a, b = sets[0][(w, m["name"])], sets[1][(w, m["name"])]
                share = worse_share(a, b, m["better"])
                flag = "ok" if share <= m["bound"] else "WORSE"
                print(f"  {w:<18}{m['name']:<14}{share:>+9.4f} / {m['bound']}  {flag}")

    for w in workloads:
        meta, res = run_once(bench, w, seed, 1)
        print(f"\n{w} traced (seed {seed}): attempted {res['attempted']} "
              f"failed {res['failed']} correct {res['correct']}")
        for m in bench["per_layer"]:
            v = res["metrics"][m["name"]]
            print(f"  {m['name']:<44}{v['value']:>14.5g} {v['unit']}")
        print(f"  tracing overhead: {meta['trace_overhead']}")
        for layer, st in meta["layer_self_time"].items():
            print(f"  self time {layer:<14}{st['self_s']:>10.4f} s in {st['calls']} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
