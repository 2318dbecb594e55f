"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from platycosms.euclid import betti_one, preset
from platycosms.geodesics import balance_table, twisted_classes
from platycosms.selberg import (
    HeatTraceConfig,
    cylinder_heat_integral,
    exercise_identity_residual,
    geometric_heat_trace,
    spectral_heat_trace,
    twisted_cylinder_volume,
)
from platycosms.spectrum import orbit_dims, spectrum_table

TETRA = preset("tetra")
DIDI = preset("didi")
HALF = Fraction(1, 2)


def _report(number: int, description: str):
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_exact_isospectrality():
    started = time.time()
    left = spectrum_table(TETRA, 400)
    right = spectrum_table(DIDI, 400)
    elapsed = time.time() - started
    assert left.max_key == right.max_key == 400
    assert left.entries == right.entries  # exact integers, zero tolerance
    assert elapsed < 10.0
    _report(1, f"tetra and didi spectra agree key-for-key up to 400 "
               f"({len(left.entries)} eigenvalue keys, {elapsed:.2f}s)")


def test_criterion_2_non_isometry_evidence():
    assert betti_one(TETRA) == 1
    assert betti_one(DIDI) == 0
    tetra_short = twisted_classes(TETRA, HALF)
    didi_short = twisted_classes(DIDI, HALF)
    assert [(c.twist_over_pi, c.count) for c in tetra_short] == [(HALF, 2)]
    assert [(c.twist_over_pi, c.count) for c in didi_short] == [(Fraction(1), 4)]
    _report(2, "first Betti numbers 1 vs 0; shortest geodesics are 2 "
               "quarter-twisters vs 4 half-twisters")


# every published cell: length -> (tetra entries, didi entries, total),
# entries as (n, t, k, w) sorted by (t, k)
PUBLISHED_TABLE = {
    Fraction(1, 2): (
        [(2, Fraction(1, 4), 1, Fraction(4))],
        [(4, Fraction(1, 2), 1, Fraction(4))],
        Fraction(4),
    ),
    Fraction(1): (
        [(1, Fraction(1, 2), 1, Fraction(1)), (2, Fraction(1, 2), 2, Fraction(1))],
        [(2, Fraction(1, 2), 1, Fraction(2))],
        Fraction(2),
    ),
    Fraction(3, 2): (
        [(2, Fraction(1, 4), 3, Fraction(4, 3))],
        [(4, Fraction(1, 2), 3, Fraction(4, 3))],
        Fraction(4, 3),
    ),
    Fraction(2): ([], [], Fraction(0)),
    Fraction(5, 2): (
        [(2, Fraction(1, 4), 5, Fraction(4, 5))],
        [(4, Fraction(1, 2), 5, Fraction(4, 5))],
        Fraction(4, 5),
    ),
    Fraction(3): (
        [(1, Fraction(1, 2), 3, Fraction(1, 3)), (2, Fraction(1, 2), 6, Fraction(1, 3))],
        [(2, Fraction(1, 2), 3, Fraction(2, 3))],
        Fraction(2, 3),
    ),
    Fraction(7, 2): (
        [(2, Fraction(1, 4), 7, Fraction(4, 7))],
        [(4, Fraction(1, 2), 7, Fraction(4, 7))],
        Fraction(4, 7),
    ),
    Fraction(4): ([], [], Fraction(0)),
    Fraction(9, 2): (
        [(2, Fraction(1, 4), 9, Fraction(4, 9))],
        [(4, Fraction(1, 2), 9, Fraction(4, 9))],
        Fraction(4, 9),
    ),
}


def test_criterion_3_published_balance_table():
    pairs = balance_table(TETRA, DIDI, Fraction(9, 2))
    assert [p.length for p in pairs] == sorted(PUBLISHED_TABLE)
    for pair in pairs:
        tetra_cells, didi_cells, total = PUBLISHED_TABLE[pair.length]
        got_tetra = [
            (e.count, e.twist_turns, e.imprimitivity, e.weight)
            for e in pair.left.entries
        ]
        got_didi = [
            (e.count, e.twist_turns, e.imprimitivity, e.weight)
            for e in pair.right.entries
        ]
        assert got_tetra == tetra_cells, f"tetra breakdown at l={pair.length}"
        assert got_didi == didi_cells, f"didi breakdown at l={pair.length}"
        assert pair.left.total == total
        assert pair.right.total == total
        assert pair.balanced
    _report(3, "balance table reproduces every published cell and the "
               "totals 4, 2, 4/3, 0, 4/5, 2/3, 4/7, 0, 4/9")


def test_criterion_4_primitive_census():
    tetra_prims = [
        c for c in twisted_classes(TETRA, Fraction(2)) if c.imprimitivity == 1
    ]
    didi_prims = [
        c for c in twisted_classes(DIDI, Fraction(2)) if c.imprimitivity == 1
    ]
    tetra_lengths = sorted(c.length for c in tetra_prims for _ in range(c.count))
    didi_lengths = sorted(c.length for c in didi_prims for _ in range(c.count))
    assert tetra_lengths == [HALF, HALF, Fraction(1)]
    assert didi_lengths == [HALF] * 4 + [Fraction(1)] * 2
    _report(4, "exactly 3 primitive twisted geodesics in tetra "
               "(1/2, 1/2, 1) and 6 in didi (1/2 x4, 1 x2)")


def test_criterion_5_trace_formula_cross_check():
    started = time.time()
    eps = 1e-10
    worst = 0.0
    for name in ("two_tall", "tetra", "didi"):
        P = preset(name)
        for t in (0.05, 0.1, 0.2, 0.5, 1.0):
            cfg = HeatTraceConfig(t, eps)
            sp = spectral_heat_trace(P, cfg)
            ge = geometric_heat_trace(P, cfg)
            diff = abs(sp.value - ge.value)
            worst = max(worst, diff)
            assert diff < 4e-10, f"{name} at t={t}: diff {diff}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(5, f"spectral vs geometric heat traces agree on all 15 cases "
               f"(worst |diff| = {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_6_exercise_identity():
    worst = 0.0
    for t in (0.05, 0.1, 0.5, 1.0):
        residual = exercise_identity_residual(t, 1e-12)
        worst = max(worst, abs(residual))
        assert abs(residual) < 5e-12
    _report(6, f"circle identity residual below 5e-12 on the time grid "
               f"(worst {worst:.2e})")


def test_criterion_7_poisson_summation_oracle():
    cubical = preset("cubical_torocosm")
    worst = 0.0
    for t in (0.05, 0.2, 1.0):
        spectral = spectral_heat_trace(cubical, HeatTraceConfig(t, 1e-11)).value
        bound = 40
        images = 0.0
        for n0 in range(-bound, bound + 1):
            for n1 in range(-bound, bound + 1):
                for n2 in range(-bound, bound + 1):
                    images += math.exp(-(n0 * n0 + n1 * n1 + n2 * n2) / (4 * t))
        images /= (4 * math.pi * t) ** 1.5
        diff = abs(spectral - images)
        worst = max(worst, diff)
        assert diff < 1e-10
    _report(7, f"cubical-torocosm spectral sum equals the Gaussian image "
               f"sum (worst |diff| = {worst:.2e})")


def test_criterion_8_cylinder_volume_law():
    rng = random.Random(2024)
    for _ in range(100):
        h = rng.uniform(0.05, 4.0)
        s = h + rng.uniform(1e-9, 5.0)
        quarter = twisted_cylinder_volume(h, math.pi / 2, s)
        half = twisted_cylinder_volume(h, math.pi, s)
        assert quarter == pytest.approx(2 * half, rel=1e-15)

    def integrand(s, l, f, t):
        kernel = math.exp(-s * s / (4 * t)) / (4 * math.pi * t) ** 1.5
        return kernel * 2 * math.pi * l * s * f / 4.0

    def adaptive_simpson(f, a, b, tol=1e-14, depth=48):
        def whole(x0, x2):
            x1 = 0.5 * (x0 + x2)
            return (x2 - x0) / 6.0 * (f(x0) + 4.0 * f(x1) + f(x2))

        def recurse(x0, x2, estimate, tol, depth):
            mid = 0.5 * (x0 + x2)
            left = whole(x0, mid)
            right = whole(mid, x2)
            if depth <= 0 or abs(left + right - estimate) < 15.0 * tol:
                return left + right + (left + right - estimate) / 15.0
            return recurse(x0, mid, left, tol / 2, depth - 1) + recurse(
                mid, x2, right, tol / 2, depth - 1
            )

        return recurse(a, b, whole(a, b), tol, depth)

    cases = [
        (Fraction(1, 2), Fraction(1, 2), 2.0, 0.2, 6.0),
        (Fraction(1), Fraction(1), 1.0, 0.5, 8.0),
        (Fraction(3, 2), Fraction(1, 2), 2.0, 1.0, 10.0),
    ]
    for length, twist, factor, t, upper in cases:
        closed = cylinder_heat_integral(length, twist, t, upper=upper)
        oracle = adaptive_simpson(
            lambda s: integrand(s, float(length), factor, t), float(length), upper
        )
        assert closed == pytest.approx(oracle, rel=1e-12)
    _report(8, "quarter-twisted cylinders have exactly twice the half-twisted "
               "volume; closed-form heat terms match adaptive quadrature")


def test_criterion_9_exceptional_case_ledger():
    for n in range(1, 11):
        expected = 1 if n % 2 else 3
        axes = [(s * n, 0, 0) for s in (1, -1)] + [(0, s * n, 0) for s in (1, -1)]
        axes += [(0, 0, s * n) for s in (1, -1)]
        for space in (TETRA, DIDI):
            assert orbit_dims(space, axes) == expected, f"n={n}"
    _report(9, "axis orbits contribute 1 eigenfunction for odd n, 3 for "
               "even n, identically in both spaces (n = 1..10)")
