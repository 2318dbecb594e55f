"""In-memory span tracer that wraps the package's public functions from
outside the package.

Each traced function is replaced at every module-level binding of it in
the `platycosms` package (the modules import their helpers by name, so
wrapping only the defining module would miss most calls), and restored
by `uninstall`.  A span records its op, its id, its parent span, its
name, its start and end, and its self time (duration minus the time its
direct child spans cover).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter_ns

# Layer entry points plus every function a per-layer metric names.  The
# small vector and matrix helpers of `linalg` are left out: they run tens
# of thousands of times per op and their spans would swamp what they
# measure.
TRACED = {
    "cli": ("main",),
    "euclid": (
        "load_space_file", "presentation_from_json", "preset", "compose",
        "inverse", "translation_lattice", "volume", "betti_one",
    ),
    "linalg": ("solve_rational_in_lattice", "hnf_rows", "nullspace"),
    "spectrum": ("is_isospectral", "spectrum_table", "multiplicity", "shell", "dual_lattice"),
    "geodesics": ("balance_table", "twisted_classes", "imprimitivity"),
    "selberg": ("spectral_heat_trace", "geometric_heat_trace", "lattice_count"),
}


def _size(name: str, result) -> float:
    """Work or output size carried by a span's result."""
    if name == "spectrum.is_isospectral":
        return 2 * (result.max_key + 1)  # the keys of the two tables compared
    if name == "geodesics.twisted_classes":
        return sum(c.count for c in result)
    if name in ("selberg.spectral_heat_trace", "selberg.geometric_heat_trace"):
        return result.cutoff
    return 0


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end, self, size)
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [sid, 0]
            self._stack.append(frame)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                size = _size(name, result) if result is not None else 0
                self.spans.append(
                    (self.op, sid, parent, name, start, end, end - start - frame[1], size)
                )

        return traced

    def install(self, package: str = "platycosms") -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"{package}.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()


# per-layer metric -> (unit, span name, what to take per op)
LAYER_METRICS = {
    "cli.main.self_s": ("s", "cli.main", "self"),
    "euclid.load_space_file.s": ("s", "euclid.load_space_file", "time"),
    "euclid.compose.calls": ("count", "euclid.compose", "calls"),
    "euclid.compose.s": ("s", "euclid.compose", "time"),
    "euclid.inverse.s": ("s", "euclid.inverse", "time"),
    "euclid.translation_lattice.calls": ("count", "euclid.translation_lattice", "calls"),
    "euclid.translation_lattice.s": ("s", "euclid.translation_lattice", "time"),
    "euclid.volume.calls": ("count", "euclid.volume", "calls"),
    "linalg.solve_rational_in_lattice.calls": ("count", "linalg.solve_rational_in_lattice", "calls"),
    "linalg.solve_rational_in_lattice.s": ("s", "linalg.solve_rational_in_lattice", "time"),
    "spectrum.spectrum_table.self_s": ("s", "spectrum.spectrum_table", "self"),
    "spectrum.multiplicity.calls": ("count", "spectrum.multiplicity", "calls"),
    "spectrum.multiplicity.s": ("s", "spectrum.multiplicity", "time"),
    "spectrum.keys_tabulated": ("keys", "spectrum.is_isospectral", "size"),
    "geodesics.twisted_classes.self_s": ("s", "geodesics.twisted_classes", "self"),
    "geodesics.twisted_classes.calls": ("count", "geodesics.twisted_classes", "calls"),
    "geodesics.imprimitivity.calls": ("count", "geodesics.imprimitivity", "calls"),
    "geodesics.imprimitivity.s": ("s", "geodesics.imprimitivity", "time"),
    "geodesics.classes": ("count", "geodesics.twisted_classes", "size"),
    "selberg.spectral_heat_trace.self_s": ("s", "selberg.spectral_heat_trace", "self"),
    "selberg.geometric_heat_trace.self_s": ("s", "selberg.geometric_heat_trace", "self"),
    "selberg.spectral_cutoff": ("keys", "selberg.spectral_heat_trace", "size"),
    "selberg.geometric_radius": ("length", "selberg.geometric_heat_trace", "size"),
}


def per_layer(tracer: Tracer, traced_ops: list[dict], untraced_times: list[float],
              lattice_count) -> dict[str, tuple[str, float]]:
    """Per-op means of every layer metric, plus the traced op p50 and the
    overhead against the untraced p50 of the same run.

    `lattice_count(space, radius)` gives the lattice points enumerated by a
    geometric heat trace of `space` at `radius`."""
    totals: dict[tuple[str, str], float] = {}
    space_of = {rec["op"]: rec["space"] for rec in traced_ops}
    lattice_points = 0
    for op, _sid, _parent, name, start, end, self_ns, size in tracer.spans:
        if op not in space_of:  # an op that raised
            continue
        for what, value in (("calls", 1), ("time", (end - start) / 1e9),
                            ("self", self_ns / 1e9), ("size", size)):
            totals[name, what] = totals.get((name, what), 0) + value
        if name == "selberg.geometric_heat_trace":
            lattice_points += lattice_count(space_of[op], size)
    n = len(traced_ops)
    out = {
        metric: (unit, totals.get((span, what), 0) / n)
        for metric, (unit, span, what) in LAYER_METRICS.items()
    }
    out["selberg.lattice_points"] = ("count", lattice_points / n)
    traced_p50 = statistics.median(rec["wall_s"] for rec in traced_ops)
    untraced_p50 = statistics.median(untraced_times)
    out["trace.op_s_p50"] = ("s", traced_p50)
    out["trace.untraced_op_s_p50"] = ("s", untraced_p50)
    out["trace.overhead_pct"] = ("%", 100.0 * (traced_p50 / untraced_p50 - 1.0))
    return out


def write_trace(path: str, header: dict, tracer: Tracer, traced_ops: list[dict]) -> None:
    """Every traced op with its spans as
    [id, parent, name, start_us (from the op's first span), duration_us, self_us, size]."""
    by_op: dict[int, list] = {}
    for op, sid, parent, name, start, end, self_ns, size in tracer.spans:
        by_op.setdefault(op, []).append((sid, parent, name, start, end, self_ns, size))
    ops = []
    for rec in traced_ops:
        spans = sorted(by_op.get(rec["op"], []))
        origin = min((s[3] for s in spans), default=0)
        ops.append({
            "op": rec["op"], "label": rec["label"], "wall_s": rec["wall_s"],
            "spans": [[sid, parent, name, (start - origin) / 1e3, (end - start) / 1e3,
                       self_ns / 1e3, size]
                      for sid, parent, name, start, end, self_ns, size in spans],
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(header, ops=ops), fh)
