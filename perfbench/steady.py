"""Steadiness check: two sets of benchmark runs of one commit.

    python3 perfbench/steady.py

Runs the command in BENCHMARK.json from the repository root, ten runs per
set and workload, two sets, one run at a time, each at BENCHMARK.json's
run_seconds and with its own seed (set 1 uses seeds 1-10, set 2 seeds
101-110).  For every workload and end-to-end metric it prints each set's
median, its spread (distance between the first and third quartile as
given by statistics.quantiles(values, n=4), over the median), how much
worse the second median is than the first, and the metric's bound.  A
metric is accepted when both spreads stay within the bound and the second
median is not worse than the first by more than the bound; the column
`third` says whether both spreads also stay within a third of the bound,
the margin aimed for.  The share of failed ops must be the same in both
sets.  Exits 0 when every metric is accepted.  All run results go to
.bench_out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SET_SEEDS = (1, 101)
RUNS = 10


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which `second` is worse than `first` (negative: better)."""
    return (second - first) / first if better == "lower" else (first - second) / first


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {}  # set index -> workload -> list of run results
    for s, first_seed in enumerate(SET_SEEDS):
        for workload in workloads:
            for seed in range(first_seed, first_seed + RUNS):
                res = run_once(bench["command"], workload, seed, bench["run_seconds"])
                res["seed"] = seed
                results.setdefault(s, {}).setdefault(workload, []).append(res)
                print(f"set {s + 1} {workload} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}",
                      file=sys.stderr, flush=True)
    out = os.path.join(ROOT, ".bench_out", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"seconds": bench["run_seconds"], "results": results}, fh, indent=1)

    accepted, thin = True, 0
    print(f"{'workload':16} {'metric':13} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'worse':>7} {'bound':>6}  accept third")
    for workload in workloads:
        sets = [results[s][workload] for s in range(len(SET_SEEDS))]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = [(statistics.median(v), spread(v))
                     for v in ([r["metrics"][name]["value"] for r in runs] for runs in sets)]
            spreads = [spr for _, spr in cells]
            worse = worse_by(cells[0][0], cells[-1][0], metric["better"])
            ok = all(spr <= bound for spr in spreads) and worse <= bound
            third = all(spr <= bound / 3 for spr in spreads)
            accepted &= ok
            thin += not third
            (m1, s1), (m2, s2) = cells[0], cells[-1]
            print(f"{workload:16} {name:13} {m1:10.5g} {s1:8.3f} {m2:10.5g} {s2:8.3f} "
                  f"{worse:7.3f} {bound:6.2f}  {'yes' if ok else 'NO':6} "
                  f"{'yes' if third else 'no'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        accepted &= len(set(shares)) == 1 and correct
        print(f"{workload:16} failed share per set {shares}, all correct: {correct}")
    print(f"{'accepted' if accepted else 'NOT accepted'}; "
          f"{thin} metric(s) with a spread above a third of the bound")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
