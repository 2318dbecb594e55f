"""Heat traces: cylinder volumes, certified truncation, trace-formula
agreement, the counting function, and the circle identity."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from platycosms.cli import DEFAULT_T_GRID
from platycosms.errors import CutoffBudgetError
from platycosms.euclid import Lattice, preset, volume
from platycosms.linalg import dot, inv3, mat, transpose
from platycosms.selberg import (
    HeatTraceConfig,
    circle_heat_trace,
    counting_function,
    counting_function_csv,
    cylinder_heat_integral,
    exercise_identity_residual,
    exercise_identity_sides,
    geometric_heat_trace,
    heat_trace_csv,
    heat_trace_rows,
    lattice_count,
    spectral_heat_trace,
    twisted_cylinder_volume,
)

TETRA = preset("tetra")
DIDI = preset("didi")
TWO_TALL = preset("two_tall")
CUBICAL = preset("cubical_torocosm")
TWO_TALL_LATTICE = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
CUBIC_LATTICE = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))


# --- cylinder volumes -----------------------------------------------------------


def test_cylinder_volume_below_height_is_zero():
    assert twisted_cylinder_volume(1.0, math.pi, 0.5) == 0.0
    assert twisted_cylinder_volume(0.25, math.pi / 2, 0.2) == 0.0


def test_cylinder_volume_direct_substitution():
    # h=1/2, theta=pi, s=1: (1/2) pi (1 - 1/4) / 4 = 3 pi / 32
    got = twisted_cylinder_volume(0.5, math.pi, 1.0)
    assert got == pytest.approx(3 * math.pi / 32, rel=1e-15)


def test_quarter_twist_doubles_half_twist():
    rng = random.Random(1234)
    for _ in range(100):
        h = rng.uniform(0.1, 3.0)
        s = h + rng.uniform(1e-6, 4.0)
        v_quarter = twisted_cylinder_volume(h, math.pi / 2, s)
        v_half = twisted_cylinder_volume(h, math.pi, s)
        assert v_quarter == pytest.approx(2 * v_half, rel=1e-15)


def test_twist_enters_only_through_sine_factor():
    h, s = 0.75, 2.0
    reference = None
    for theta in (math.pi / 5, math.pi / 3, math.pi / 2, 2.2, math.pi):
        normalized = twisted_cylinder_volume(h, theta, s) * math.sin(theta / 2) ** 2
        if reference is None:
            reference = normalized
        assert normalized == pytest.approx(reference, rel=1e-12)


def test_cylinder_volume_argument_errors():
    with pytest.raises(ValueError):
        twisted_cylinder_volume(0.0, math.pi, 1.0)
    with pytest.raises(ValueError):
        twisted_cylinder_volume(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        twisted_cylinder_volume(1.0, 3.2, 2.0)


# --- lattice counts ----------------------------------------------------------------


def _brute_lattice_count(basis_rows, s):
    """Oracle: scan a coordinate box that holds the ball.  Coordinate i of
    a lattice point p is <p, d_i> with d_i the dual basis, so by
    Cauchy-Schwarz |n_i| <= s*|d_i|."""
    basis = mat(basis_rows)
    dual = inv3(transpose(basis))
    r2 = Fraction(s) ** 2
    bounds = [math.isqrt(math.ceil(r2 * dot(d, d))) + 1 for d in dual]
    count = 0
    for n in itertools.product(*(range(-b, b + 1) for b in bounds)):
        p = [sum(ni * row[k] for ni, row in zip(n, basis)) for k in range(3)]
        if dot(p, p) <= r2:
            count += 1
    return count


def test_lattice_count_examples():
    assert lattice_count(TWO_TALL_LATTICE, 0) == 1
    assert lattice_count(TWO_TALL_LATTICE, 1) == 5
    assert lattice_count(CUBIC_LATTICE, 1) == 7


BRUTE_FORCE_BASES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    # a unimodular change of basis of Z x Z x 2Z
    [[1, 1, 0], [0, 1, 2], [1, 1, 2]],
    # Z x Z x (1/2)Z, the dual of the two-story lattice
    [[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]],
    # a skewed rational basis
    [[1, Fraction(1, 2), 0], [0, 1, Fraction(1, 3)], [Fraction(1, 2), 0, 1]],
]


@pytest.mark.parametrize("s", [Fraction(3, 2), 2, Fraction(5, 2), 3])
def test_lattice_count_against_brute_force(s):
    for rows in BRUTE_FORCE_BASES:
        assert lattice_count(Lattice(mat(rows)), s) == _brute_lattice_count(rows, s)


def test_lattice_count_boundary_is_exact():
    # radius exactly 1 must include the six unit vectors of the cubic lattice
    assert lattice_count(CUBIC_LATTICE, 1) - lattice_count(CUBIC_LATTICE, Fraction(99, 100)) == 6


# --- spectral trace ------------------------------------------------------------------


def test_spectral_trace_large_time_is_one():
    res = spectral_heat_trace(TETRA, HeatTraceConfig(100.0, 1e-10))
    assert abs(res.value - 1.0) < 1e-30
    assert res.tail_bound < 1e-30


def test_spectral_trace_decreasing_to_one():
    values = [
        spectral_heat_trace(TETRA, HeatTraceConfig(t, 1e-10)).value
        for t in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # strictly decreasing while the tail is above double-precision noise
    resolved = [v for v in values if v > 1 + 1e-12]
    assert len(resolved) >= 3
    assert all(a > b for a, b in zip(resolved, resolved[1:]))
    assert values[-1] == pytest.approx(1.0, abs=1e-9)


def test_spectral_equality_of_the_twins():
    for t in (0.05, 0.1, 0.5):
        cfg = HeatTraceConfig(t, 1e-10)
        a = spectral_heat_trace(TETRA, cfg)
        b = spectral_heat_trace(DIDI, cfg)
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def test_weyl_volume_asymptotics():
    # K(t) * (4 pi t)^(3/2) -> Vol as t -> 0; within 5% at t = 0.01
    t = 0.01
    res = spectral_heat_trace(TETRA, HeatTraceConfig(t, 1e-8))
    scaled = res.value * (4 * math.pi * t) ** 1.5
    assert scaled == pytest.approx(float(volume(TETRA)), rel=0.05)


def test_spectral_cutoff_budget():
    with pytest.raises(CutoffBudgetError):
        spectral_heat_trace(TETRA, HeatTraceConfig(1e-7, 1e-12))


def test_config_validation():
    with pytest.raises(ValueError):
        HeatTraceConfig(0.0, 1e-10)
    with pytest.raises(ValueError):
        HeatTraceConfig(1.0, 0.0)


def test_heat_time_beyond_float_range_is_refused():
    """Where pi^2 t overflows, the key-0 term exp(-pi^2 t * 0) would be a
    NaN reported with a tail bound of 0; the config refuses such t for
    every evaluator.  Just below, the trace is the constant term."""
    with pytest.raises(CutoffBudgetError, match="outside the float range"):
        HeatTraceConfig(1e308, 1e-10)
    cfg = HeatTraceConfig(1.8e307, 1e-10)
    for trace in (spectral_heat_trace(TETRA, cfg), circle_heat_trace(Fraction(2), cfg)):
        assert (trace.value, trace.tail_bound) == (1.0, 0.0)


# --- Poisson summation oracle ---------------------------------------------------------


def _image_sum(t, lattice_rows, bound=40):
    """(4 pi t)^(-3/2) * covol-free Gaussian image sum, brute-forced."""
    total = 0.0
    for n0 in range(-bound, bound + 1):
        for n1 in range(-bound, bound + 1):
            for n2 in range(-bound, bound + 1):
                x = n0 * lattice_rows[0][0]
                y = n1 * lattice_rows[1][1]
                z = n2 * lattice_rows[2][2]
                total += math.exp(-(x * x + y * y + z * z) / (4 * t))
    return total / (4 * math.pi * t) ** 1.5


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
def test_poisson_summation_cubical(t):
    spectral = spectral_heat_trace(CUBICAL, HeatTraceConfig(t, 1e-11)).value
    images = _image_sum(t, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert abs(spectral - images) < 1e-10


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
def test_poisson_summation_two_tall(t):
    spectral = spectral_heat_trace(TWO_TALL, HeatTraceConfig(t, 1e-11)).value
    images = 2.0 * _image_sum(t, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert abs(spectral - images) < 1e-10


# --- geometric trace -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["two_tall", "tetra", "didi", "cubical_torocosm"])
@pytest.mark.parametrize("t", [0.05, 0.1, 0.2, 0.5, 1.0])
def test_trace_formula_agreement(name, t):
    P = preset(name)
    cfg = HeatTraceConfig(t, 1e-10)
    sp = spectral_heat_trace(P, cfg)
    ge = geometric_heat_trace(P, cfg)
    assert abs(sp.value - ge.value) < sp.tail_bound + ge.tail_bound + 1e-12
    assert abs(sp.value - ge.value) < 4e-10


def test_geometric_trace_reports_cutoff_and_bound():
    res = geometric_heat_trace(TETRA, HeatTraceConfig(0.2, 1e-10))
    assert res.cutoff >= 1.0
    assert 0 < res.tail_bound < 1e-10


# certified cutoffs (key bound K, half-integer radius S) on the CLI's default
# t-grid 0.05, 0.1, 0.2, 0.5, 1; Tetra and Didi choose the same ones
PINNED_CUTOFFS = {
    1e-10: [(62, 2.5), (30, 3.5), (14, 5.5), (5, 8.0), (2, 11.0)],
    1e-6: [(43, 2.5), (20, 3.0), (9, 4.5), (3, 6.5), (1, 9.0)],
}


@pytest.mark.parametrize("eps", sorted(PINNED_CUTOFFS))
@pytest.mark.parametrize("space", [TETRA, DIDI], ids=["tetra", "didi"])
def test_certified_cutoffs_are_pinned(space, eps):
    got = []
    for t in DEFAULT_T_GRID:
        cfg = HeatTraceConfig(t, eps)
        got.append((spectral_heat_trace(space, cfg).cutoff,
                    geometric_heat_trace(space, cfg).cutoff))
    assert got == PINNED_CUTOFFS[eps]


def test_explicit_cutoffs_are_respected():
    cfg = HeatTraceConfig(0.2, 1e-6, spectral_cutoff=40, geometric_cutoff=6.0)
    sp = spectral_heat_trace(TETRA, cfg)
    ge = geometric_heat_trace(TETRA, cfg)
    assert sp.cutoff == 40.0
    assert ge.cutoff == 6.0
    assert abs(sp.value - ge.value) < sp.tail_bound + ge.tail_bound + 1e-12


# --- closed-form cylinder term vs adaptive quadrature -----------------------------------


def _adaptive_simpson(f, a, b, tol=1e-14):
    def simpson(x0, x2):
        x1 = 0.5 * (x0 + x2)
        return (x2 - x0) / 6.0 * (f(x0) + 4.0 * f(x1) + f(x2)), x1

    def recurse(x0, x2, whole, tol, depth):
        mid = 0.5 * (x0 + x2)
        left, _ = simpson(x0, mid)
        right, _ = simpson(mid, x2)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, mid, left, tol / 2.0, depth - 1) + recurse(
            mid, x2, right, tol / 2.0, depth - 1
        )

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, tol, 48)


@pytest.mark.parametrize(
    "length,twist_over_pi,t,upper",
    [
        (Fraction(1, 2), Fraction(1, 2), 0.1, 4.0),
        (Fraction(1, 2), Fraction(1), 0.25, 5.0),
        (Fraction(3, 2), Fraction(1, 2), 0.5, 8.0),
        (Fraction(1), Fraction(1), 1.0, 10.0),
        (Fraction(5, 2), Fraction(1), 0.75, 9.0),
    ],
)
def test_cylinder_heat_integral_against_quadrature(length, twist_over_pi, t, upper):
    l = float(length)
    factor = {Fraction(1): 1.0, Fraction(1, 2): 2.0}[twist_over_pi]

    def integrand(s):
        # (4 pi t)^(-3/2) e^(-s^2/4t) dV/ds with dV/ds = 2 pi l s f / 4
        kernel = math.exp(-s * s / (4 * t)) / (4 * math.pi * t) ** 1.5
        return kernel * 2 * math.pi * l * s * factor / 4.0

    oracle = _adaptive_simpson(integrand, l, upper)
    closed = cylinder_heat_integral(length, twist_over_pi, t, upper=upper)
    assert closed == pytest.approx(oracle, rel=1e-12)


def test_cylinder_heat_integral_infinite_upper_limit():
    closed = cylinder_heat_integral(Fraction(1, 2), Fraction(1), 0.3)
    truncated = cylinder_heat_integral(Fraction(1, 2), Fraction(1), 0.3, upper=30.0)
    assert closed == pytest.approx(truncated, rel=1e-14)


# --- counting function -------------------------------------------------------------------


def test_counting_function_at_zero_plus():
    for P in (TETRA, DIDI, TWO_TALL):
        sample = counting_function(P, Fraction(1, 1000))
        assert sample.jump == volume(P)
        assert sample.cylinder_over_pi == 0


def test_counting_function_monotone():
    values = [counting_function(TETRA, Fraction(i, 4)).n_total for i in range(1, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_counting_function_twins_agree_exactly():
    """Jump parts agree (same lattice, same volume) and cylinder parts
    agree (balanced weights) -- separately and exactly."""
    rng = random.Random(7)
    radii = [Fraction(i, 2) for i in range(0, 11)]
    radii += [Fraction(rng.randint(1, 40), rng.randint(8, 10)) for _ in range(10)]
    for s in radii:
        a = counting_function(TETRA, s)
        b = counting_function(DIDI, s)
        assert a.jump == b.jump
        assert a.cylinder_over_pi == b.cylinder_over_pi


def test_counting_function_jump_values():
    # Vol = 1/2 and 5 lattice points within radius 1
    sample = counting_function(TETRA, Fraction(1))
    assert sample.jump == Fraction(5, 2)


def test_counting_function_cylinder_mass_cumulates_balance_weights():
    # N_cyl(s)/pi = sum over lengths l <= s of w_l * l * (s^2 - l^2) / 2,
    # with the per-length weights from the balance table
    from platycosms.geodesics import balance_table

    s = Fraction(5)
    acc = Fraction(0)
    for pair in balance_table(TETRA, DIDI, s):
        if pair.length <= s:
            acc += pair.left.total * pair.length * (s * s - pair.length ** 2) / 2
    assert acc == Fraction(495, 4)
    assert counting_function(TETRA, s).cylinder_over_pi == acc
    assert counting_function(DIDI, s).cylinder_over_pi == acc


def test_counting_function_csv():
    text = counting_function_csv(TETRA, [Fraction(1, 2), Fraction(1)])
    lines = text.strip().split("\n")
    assert lines[0] == "s,N_jump,N_cylinder,N_total"
    assert lines[1].startswith("1/2,")
    assert len(lines) == 3


# --- circle traces and the exercise identity ----------------------------------------------


def test_circle_trace_matches_direct_sum():
    for c, t in ((Fraction(1, 2), 0.1), (Fraction(2), 0.3)):
        res = circle_heat_trace(c, HeatTraceConfig(t, 1e-12))
        direct = sum(
            math.exp(-((2 * math.pi * n / float(c)) ** 2) * t) for n in range(-60, 61)
        )
        assert res.value == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.5, 1.0])
def test_exercise_identity(t):
    residual = exercise_identity_residual(t, 1e-12)
    assert abs(residual) < 5e-12


def test_exercise_identity_antisymmetry():
    lhs, rhs, _ = exercise_identity_sides(0.2, 1e-12)
    assert (rhs - lhs) == -(lhs - rhs)


def test_exercise_bound_reported():
    lhs, rhs, bound = exercise_identity_sides(0.1, 1e-12)
    assert abs(lhs - rhs) < bound + 1e-13
    assert bound < 5e-12


# --- tabulated output ----------------------------------------------------------------------


def test_heat_trace_rows_and_csv():
    rows = heat_trace_rows(TETRA, [0.2, 0.5], 1e-10)
    assert len(rows) == 2
    for t, sp, ge, diff, bound in rows:
        assert diff == abs(sp - ge)
        assert diff < bound + 1e-12
    text = heat_trace_csv(TETRA, [0.2], 1e-10)
    lines = text.strip().split("\n")
    assert lines[0] == "t,spectral,geometric,abs_diff,bound"
    assert len(lines) == 2
    assert lines[1].startswith("0.2")


def test_geometric_trace_at_tiny_t():
    """Where (4 pi t)^(3/2) underflows there is no float answer, and the
    geometric side refuses.  Just above, every term but the identity's is
    below the smallest float: the value is vol / (4 pi t)^(3/2), with
    finite tails."""
    tetra = preset("tetra")
    with pytest.raises(CutoffBudgetError):
        geometric_heat_trace(tetra, HeatTraceConfig(1e-250, 1e-10))
    t = 1e-200
    got = geometric_heat_trace(tetra, HeatTraceConfig(t, 1e-10))
    assert got.value == float(volume(tetra)) / (4 * math.pi * t) ** 1.5
    assert math.isfinite(got.tail_bound) and got.tail_bound >= 0.0
