"""Benchmark command: one closed-loop, single-process workload run.

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src of the
same checkout (never from site-packages); without it the command exits 2
and prints no result.  Each op starts when the previous one ends; the
process starts no threads or processes.  Ops run in whole rounds until
--seconds have passed.  Every op's output is checked against the
independent oracles in oracles.py.  The set-up is timed several times,
spread over the run, and setup_s is their median.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics and writes every span to
.bench_out/trace-<workload>-<seed>.json.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

E2E_UNITS = {
    "op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s",
    "cpu_s_per_op": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def _package_modules() -> list[str]:
    return [m for m in sys.modules if m == "platycosms" or m.startswith("platycosms.")]


def fresh_import():
    """Import the package from ./src with every module-level cache empty."""
    for name in _package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("platycosms")
    importlib.import_module("platycosms.cli")
    return pkg


def set_up(workload) -> float:
    """One timed set-up: a fresh import plus the workload's own set-up."""
    gc.collect()
    t0 = time.perf_counter()
    workload.setup(fresh_import())
    return time.perf_counter() - t0


def set_up_again(workload) -> float:
    """A set-up timed between rounds.  The package modules and the workload
    state the run is using are put back afterwards, so the ops keep their
    package and its caches."""
    modules = {name: sys.modules[name] for name in _package_modules()}
    state = dict(vars(workload))
    try:
        return set_up(workload)
    finally:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(modules)
        vars(workload).clear()
        vars(workload).update(state)


def cpu_seconds() -> float:
    """Process CPU time, children included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def quantile(values, q: int) -> float:
    """The q-th decile (inclusive method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload, seconds: float, tracer=None, setup_samples: int = 1):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setup_samples = setup_samples
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # ops that raised
        self.wrong: list[str] = []  # ops whose output failed a check
        self.times: list[float] = []  # untraced op wall times
        self.cpu: list[float] = []
        self.traced_ops: list[dict] = []

    def _one(self, op, traced: bool) -> None:
        tracer = self.tracer
        if traced:
            tracer.op = self.attempted
            tracer.active = True
        self.attempted += 1
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # an op that raises counts as failed; the run goes on
            self.failed += 1
            self.errors.append(f"{op.label}: {traceback.format_exc()}")
            return
        finally:
            t1 = time.perf_counter()
            c1 = cpu_seconds()
            if traced:
                tracer.active = False
        if traced:
            self.traced_ops.append({"op": tracer.op, "label": op.label, "wall_s": t1 - t0,
                                    "space": op.space})
        else:
            self.times.append(t1 - t0)
            self.cpu.append(c1 - c0)
        try:
            op.check(result)
        except AssertionError as exc:
            self.wrong.append(f"{op.label}: wrong output: {exc}")

    def loop(self) -> None:
        self.setup_times.append(set_up(self.workload))
        start = time.perf_counter()
        r = 0
        while True:
            # a traced round replays the parameters of the untraced round
            # before it, so the two halves of the run share one op mix
            traced = self.tracer is not None and r % 2 == 1
            ops = self.workload.round_ops(r, r - 1 if traced else r)
            if traced:
                self.tracer.install()
            try:
                for op in ops:
                    self._one(op, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            r += 1
            # the other set-ups are spread evenly over the measured time, so
            # setup_s sees the same machine as the ops; the clock stops for them
            elapsed = time.perf_counter() - start
            while (len(self.setup_times) < self.setup_samples
                   and elapsed >= len(self.setup_times) * self.seconds / self.setup_samples):
                t0 = time.perf_counter()
                self.setup_times.append(set_up_again(self.workload))
                start += time.perf_counter() - t0
            if elapsed >= self.seconds and (self.tracer is None or r % 2 == 0):
                break


def end_to_end(run: Run) -> dict:
    times = run.times
    return {
        "op_s_p50": statistics.median(times),
        "op_s_p90": quantile(times, 9),
        "ops_per_s": len(times) / sum(times),
        "cpu_s_per_op": sum(run.cpu) / len(times),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "platycosms", "__init__.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = spans.Tracer() if args.trace else None
    # the traced run reports no setup_s, so it sets up once
    run = Run(workload, args.seconds, tracer, 1 if args.trace else workload.setup_samples)
    try:
        run.loop()
    finally:
        workload.cleanup()

    for err in run.errors[:3] + run.wrong[:3]:
        print(err, file=sys.stderr)
    if not run.times or (args.trace and not run.traced_ops):
        print("error: no op completed", file=sys.stderr)
        return 1
    if args.trace:
        layer = spans.per_layer(tracer, run.traced_ops, run.times,
                                getattr(workload, "lattice_count", None))
        spans.write_trace(
            os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "metrics": {name: value for name, (_, value) in layer.items()}},
            tracer, run.traced_ops)
        units = {name: unit for name, (unit, _) in layer.items()}
        metrics = {name: value for name, (_, value) in layer.items()}
    else:
        metrics = end_to_end(run)
        units = E2E_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
