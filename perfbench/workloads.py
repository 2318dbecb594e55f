"""The benchmark's three workloads.

Each workload generates its inputs from the seed, round by round; a round
is a fixed list of ops whose mix is the same in every round and every
run, so op-time quantiles do not depend on how many rounds a run gets
through.  `setup(pkg)` is the timed set-up, taken `setup_samples` times
in a run, `round_ops(r, mix)` builds
the inputs of round r (untimed) with the parameters drawn for round `mix`
(names stay unique per round, so cold rounds still miss every cache), an
op's `run()` is the timed call into the package and its `check(result)`
compares the output with the oracles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracles
import variants

# verify-cold: 16 ops per round, K stratified over [K_LOW, K_LOW + 16*K_STRATUM)
K_LOW, K_STRATUM = 400, 25
# balance-cold: one fixed length bound
BALANCE_MAX_LENGTH = Fraction(1, 2)
# heat-sweep-warm: 8 log-spaced times over which the geometric radius stays
# at 3 or 7/2, so that per-op work has one mode
T_GRID = tuple(0.06 * (0.1 / 0.06) ** (i / 7) for i in range(8))
HEAT_EPS = 1e-10
HEAT_SPACES = ("tetra", "didi")


def _kinds(rng: random.Random) -> list[int]:
    kinds = list(variants.KINDS)
    rng.shuffle(kinds)
    return kinds


class Op:
    __slots__ = ("run", "check", "label", "space")

    def __init__(self, run, check, label, space=None):
        self.run, self.check, self.label, self.space = run, check, label, space


class _Cold:
    """Set-up builds the first round's inputs; every later round is new."""

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.first_round = self._build(0, 0)

    def round_ops(self, r: int, mix: int) -> list[Op]:
        if r == 0:
            return self.first_round
        return self._build(r, mix)

    def cleanup(self) -> None:
        pass


class VerifyCold(_Cold):
    """is_isospectral(tetra', didi', K) on fresh variants, K in 400..799,
    plus one non-isospectral control pair (tetra', dicosm') per round."""

    name = "verify-cold"
    setup_samples = 15

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        k_max = K_LOW + 16 * K_STRATUM
        self.expected = {"tetra": oracles.tetra_spectrum(k_max),
                         "didi": oracles.tetra_spectrum(k_max),
                         "dicosm": oracles.dicosm_spectrum(k_max)}

    def _build(self, r: int, mix: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{mix}")
        keys = [K_LOW + K_STRATUM * i + rng.randrange(K_STRATUM) for i in range(16)]
        rng.shuffle(keys)
        pairs = [(kt, "didi", kd, K) for kt, kd, K in zip(_kinds(rng), _kinds(rng), keys)]
        pairs.insert(rng.randrange(17), (rng.choice(variants.KINDS), "dicosm",
                                         rng.choice(variants.KINDS),
                                         K_LOW + rng.randrange(16 * K_STRATUM)))
        ops = []
        for i, (kt, right, kr, K) in enumerate(pairs):
            tag = f"s{self.seed}-r{r}-{i}"
            spaces = [
                self.pkg.presentation_from_json(
                    variants.variant(base, kind, f"{base}-{tag}", rng))
                for base, kind in (("tetra", kt), (right, kr))
            ]
            ops.append(self._op(*spaces, right, K))
        return ops

    def _op(self, left, right, right_base: str, K) -> Op:
        pkg = self.pkg
        want = [tuple(e for e in self.expected[base] if e[0] <= K)
                for base in ("tetra", right_base)]

        def run():
            # the tables is_isospectral compared: cache hits here, so a
            # verdict reached without them still pays for them in the op
            return (pkg.is_isospectral(left, right, K),
                    pkg.spectrum_table(left, K), pkg.spectrum_table(right, K))

        def check(result):
            verdict, *tables = result
            oracles.check_verdict(verdict.to_json_dict(), K, *want)
            for table, entries in zip(tables, want):
                oracles.check_spectrum(table.entries, entries)

        return Op(run, check, f"{right_base} K={K}")


class BalanceCold(_Cold):
    """`platycosm balance` through cli.main on fresh space files."""

    name = "balance-cold"
    setup_samples = 31

    def __init__(self, seed: int, workdir: str):
        import jsonschema

        self.seed = seed
        self.dir = os.path.join(workdir, f"spaces-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "docs", "schemas", "balance.schema.json"), encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))

    def _build(self, r: int, mix: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{mix}")
        ops = []
        for i, (kt, kd) in enumerate(zip(_kinds(rng), _kinds(rng))):
            tag = f"s{self.seed}-r{r}-{i}"
            paths = []
            for base, kind in (("tetra", kt), ("didi", kd)):
                path = os.path.join(self.dir, f"{base}-{tag}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(variants.variant(base, kind, f"{base}-{tag}", rng), fh)
                paths.append(path)
            ops.append(self._op(*paths))
        return ops

    def _op(self, left: str, right: str) -> Op:
        cli = self.pkg.cli
        argv = ["balance", "--left-file", left, "--right-file", right,
                "--max-length", str(BALANCE_MAX_LENGTH)]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            try:
                if code != 0:
                    raise oracles.CheckFailed(f"exit code {code}: {err.strip()}")
                try:
                    doc = json.loads(out)
                except json.JSONDecodeError as exc:
                    raise oracles.CheckFailed(f"stdout is not JSON: {exc}") from exc
                errors = sorted(e.message for e in self.validator.iter_errors(doc))
                if errors:
                    raise oracles.CheckFailed(f"schema: {errors[0]}")
                oracles.check_balance(doc, BALANCE_MAX_LENGTH,
                                      os.path.basename(left), os.path.basename(right))
            finally:
                for path in (left, right):
                    os.remove(path)

        return Op(run, check, os.path.basename(left))

    def cleanup(self) -> None:
        if os.path.isdir(self.dir):
            for entry in os.listdir(self.dir):
                os.remove(os.path.join(self.dir, entry))
            os.rmdir(self.dir)


class HeatSweepWarm:
    """spectral + geometric heat trace of one space at one grid time, with
    every (space, t) key evaluated once during set-up."""

    name = "heat-sweep-warm"
    setup_samples = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.oracle = {t: oracles.oracle_heat_trace(t) for t in T_GRID}
        self.lattice_points: dict[tuple, int] = {}

    def setup(self, pkg) -> None:
        self.pkg = pkg
        # the presets' own presentations (kind 0, which draws nothing from
        # the generator); the seed only orders the ops
        self.spaces = {
            base: pkg.presentation_from_json(
                variants.variant(base, 0, f"{base}-warm", random.Random(0)))
            for base in HEAT_SPACES
        }
        for P in self.spaces.values():
            for t in T_GRID:
                cfg = pkg.HeatTraceConfig(t, HEAT_EPS)
                pkg.spectral_heat_trace(P, cfg)
                pkg.geometric_heat_trace(P, cfg)

    def round_ops(self, r: int, mix: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{mix}")
        keys = [(base, t) for base in HEAT_SPACES for t in T_GRID]
        rng.shuffle(keys)
        return [self._op(base, t) for base, t in keys]

    def _op(self, base: str, t: float) -> Op:
        pkg, P = self.pkg, self.spaces[base]

        def run():
            cfg = pkg.HeatTraceConfig(t, HEAT_EPS)
            return pkg.spectral_heat_trace(P, cfg), pkg.geometric_heat_trace(P, cfg)

        def check(result):
            sp, ge = result
            oracles.check_heat((sp.value, sp.tail_bound), (ge.value, ge.tail_bound),
                               self.oracle[t])

        return Op(run, check, f"{base} t={t:.4f}", space=P)

    def lattice_count(self, P, radius: float) -> int:
        """Lattice points the geometric side enumerated (untraced, cached)."""
        key = (P.name, radius)
        if key not in self.lattice_points:
            lat = self.pkg.translation_lattice(P)
            self.lattice_points[key] = self.pkg.lattice_count(lat, Fraction(radius))
        return self.lattice_points[key]

    def cleanup(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (VerifyCold, BalanceCold, HeatSweepWarm)}
