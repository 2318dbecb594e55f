"""Exact linear algebra: the Hermite reduction, lattice solvers, helpers."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from class_oracle import fraction_gcd, fraction_sqrt, primitive_integer_vector
from conftest import (
    make_amphicosm, make_dicosm, make_fcc_torus, make_skew_dicosm, rank, same_lattice, swap_xz,
)
from platycosms import linalg
from platycosms.euclid import _PRESETS, Lattice, preset
from platycosms.linalg import (
    IDENTITY,
    det3,
    dot,
    form_points,
    fraction_to_str,
    half_shell,
    hnf_rows,
    integer_kernel,
    inv3,
    kernel3,
    mat,
    mat_mul,
    nullspace,
    reduced_gram,
    solve_integer,
    solve_rational_in_lattice,
    vec,
    _round_div,
)
from platycosms.spectrum import _character_sum, _dual_action, _finalize, multiplicity


def _mat_apply(a, x):
    return [sum(a[i][j] * x[j] for j in range(len(x))) for i in range(len(a))]


def _det_int(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def test_inv3_and_det3():
    m = mat([[1, 2, 0], [0, 1, 0], [3, 0, 2]])
    assert det3(m) == 2
    assert mat_mul(m, inv3(m)) == IDENTITY
    assert mat_mul(inv3(m), m) == IDENTITY


def test_rank_and_nullspace():
    rows = [[Fraction(1), Fraction(0), Fraction(-1)], [Fraction(2), Fraction(0), Fraction(-2)]]
    assert rank(rows) == 1
    basis = nullspace(rows)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[i] * v[i] for i in range(3)) == 0 for r in rows)


def test_rank_of_rational_rows():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert rank([[half, third, 1], [1, 2 * third, 2]]) == 1
    assert rank([[half, third, 1], [1, third, 2]]) == 2
    assert rank([[0, 0, 0], [0, 0, third]]) == 1
    assert rank([]) == 0


def test_solve_integer_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        x = [rng.randint(-4, 4) for _ in range(3)]
        b = _mat_apply(a, x)
        sol = solve_integer(a, b)
        assert sol is not None
        assert _mat_apply(a, sol) == b


def test_solve_integer_unsolvable():
    assert solve_integer([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1, 0, 0]) is None
    assert solve_integer([[1, 1, 1], [0, 0, 0], [0, 0, 0]], [0, 1, 0]) is None


def test_solve_rational_in_lattice():
    a = [[Fraction(1, 2), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(1, 3), Fraction(0)]]
    assert solve_rational_in_lattice(a, [Fraction(1), Fraction(2)]) == [2, 6, 0]
    assert solve_rational_in_lattice(a, [Fraction(1, 4), Fraction(0)]) is None


def test_integer_kernel():
    basis = integer_kernel([[0, 0, 2]])
    assert len(basis) == 2
    for v in basis:
        assert 2 * v[2] == 0
    # kernel vectors must span the x-y plane over Z
    m = [[v[0], v[1]] for v in basis]
    assert abs(_det_int(m)) == 1


_SMALL = st.integers(-4, 4)


@st.composite
def _low_rank_matrices(draw):
    """Integer 3x3 matrices C . U with U of k <= 3 rows, so of rank <= k."""
    k = draw(st.integers(0, 3))
    basis = [draw(st.tuples(_SMALL, _SMALL, _SMALL)) for _ in range(k)]
    coeffs = [[draw(_SMALL) for _ in range(k)] for _ in range(3)]
    return [[sum(c * u[j] for c, u in zip(row, basis)) for j in range(3)] for row in coeffs]


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(_low_rank_matrices(),
                 st.lists(st.lists(_SMALL, min_size=3, max_size=3), min_size=3, max_size=3)))
@example([[0, 0, 0]] * 3)
@example([[1, 2, 3], [2, 4, 6], [0, 0, 0]])
@example([[0, 0, 0], [0, 0, 0], [0, 0, 5]])
@example([[2, 0, 0], [0, 3, 0], [0, 0, 1]])
@example([[1, 1, 0], [0, 0, 0], [2, 2, 0]])
def test_kernel3_is_integer_kernel(a):
    """Rank 2 takes the cross product, with no Hermite reduction; ranks
    0, 1 and 3 take `integer_kernel`.  Either way the basis is the one
    `integer_kernel` gives."""
    expected = integer_kernel(a)
    with mock.patch.object(linalg, "integer_kernel", wraps=integer_kernel) as hermite_path:
        got = kernel3(a)
    assert got == expected
    assert hermite_path.called == (rank(a) != 2)


def test_hnf_rows_preserves_row_lattice():
    rng = random.Random(3)
    for _ in range(100):
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)]
        h = hnf_rows(rows)
        # every original row is an integer combination of HNF rows and back
        for r in rows:
            if not any(r):
                continue
            assert solve_integer(list(zip(*h)), r) is not None
        for r in h:
            assert solve_integer(list(zip(*rows)), r) is not None


def test_hnf_shape():
    h = hnf_rows([[1, -1], [1, 1]])
    assert h == [[1, 1], [0, 2]]


def test_fraction_helpers():
    assert fraction_gcd([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)
    assert fraction_gcd([Fraction(2), Fraction(3)]) == 1
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        fraction_sqrt(Fraction(-1))
    assert fraction_to_str(Fraction(3, 2)) == "3/2"
    assert fraction_to_str(Fraction(4)) == "4"
    assert primitive_integer_vector(vec(Fraction(-1, 2), 0, Fraction(3, 2))) == (1, 0, -3)
    assert primitive_integer_vector(vec(0, 0, Fraction(2))) == (0, 0, 1)


@pytest.mark.parametrize("rows", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 1, 0], [0, 1, 2], [1, 1, 2]],
    [[1, Fraction(1, 2), 0], [0, 1, Fraction(1, 3)], [Fraction(1, 2), 0, 1]],
    [[5, 3, 0], [3, 2, 0], [Fraction(7, 2), 0, Fraction(1, 4)]],
])
def test_reduced_gram_is_a_basis_with_its_gram_matrix(rows):
    basis, gram, den = reduced_gram(mat(rows))
    assert same_lattice(Lattice(mat(basis)), Lattice(mat(rows)))
    assert [[Fraction(c, den) for c in r] for r in gram] == [
        [dot(u, w) for w in basis] for u in basis
    ]
    norms = [dot(b, b) for b in basis]
    assert norms == sorted(norms, reverse=True)


def test_round_div_rounds_half_to_even():
    assert all(_round_div(n, d) == round(Fraction(n, d))
               for n in range(-60, 61) for d in range(1, 13))


# forms for the point enumerator: 1-, 2- and 3-D, a diagonal one, the dual
# forms Q of the amphicosm and of the x <-> z conjugates, and a skew form
# with every cross term non-zero
FORMS = {
    "1d": ((3,),),
    "2d": ((2, 1), (1, 3)),
    "3d": ((2, 1, 0), (1, 2, 1), (0, 1, 3)),
    "diag_4_4_1": ((4, 0, 0), (0, 4, 0), (0, 0, 1)),
    "amphicosm": _dual_action(make_amphicosm()).gram,
    "tetra_x_long": _dual_action(swap_xz(preset("tetra"))).gram,
    "didi_x_long": _dual_action(swap_xz(preset("didi"))).gram,
    "skew": ((5, 2, 1), (2, 6, -3), (1, -3, 7)),
}


def _value(H, y):
    return sum(a * h * b for a, row in zip(y, H) for h, b in zip(row, y))


def _det(H):
    if len(H) == 3:
        return det3(H)
    return H[0][0] * H[1][1] - H[0][1] * H[1][0] if len(H) == 2 else H[0][0]


@pytest.mark.parametrize("H", FORMS.values(), ids=FORMS.keys())
def test_single_shell_matches_the_ball(H):
    """The perfect-square shell walk finds exactly the ball's points of
    each value, empty shells and the origin included."""
    ball = list(form_points(H, 0, 300))
    assert all(_value(H, y) == k for y, k in ball)
    empty = 0
    for k in range(301):
        shell = sorted(form_points(H, k, k))
        assert shell == sorted((y, v) for y, v in ball if v == k)
        empty += not shell
    assert empty and sorted(form_points(H, 0, 0)) == [((0,) * len(H), 0)]


@pytest.mark.parametrize("H", FORMS.values(), ids=FORMS.keys())
def test_ball_matches_brute_force(H):
    """Every point of a box that holds the ellipsoid, filtered by value:
    each eigenvalue is at most the trace, so the least one is at least
    det / trace^(n-1)."""
    n, hi = len(H), 40
    trace = sum(H[i][i] for i in range(n))
    reach = math.isqrt(hi * trace ** (n - 1) // _det(H)) + 1
    box = itertools.product(range(-reach, reach + 1), repeat=n)
    expected = [(y, v) for y in box for v in [_value(H, y)] if v <= hi]
    assert sorted(form_points(H, 0, hi)) == sorted(expected)
    assert sorted(form_points(H, 7, hi)) == sorted(p for p in expected if p[1] >= 7)


# positive definite integer 3x3 forms H = A A^T, A lower triangular with a
# positive diagonal, so cross terms of either sign appear
_TRIANGULAR = st.tuples(
    st.integers(1, 4), st.integers(-3, 3), st.integers(1, 4),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
)


def _gram_of(a):
    a00, a10, a11, a20, a21, a22 = a
    rows = ((a00, 0, 0), (a10, a11, 0), (a20, a21, a22))
    return tuple(tuple(sum(x * y for x, y in zip(u, w)) for w in rows) for u in rows)


@settings(max_examples=150, deadline=None, database=None)
@given(_TRIANGULAR, st.integers(0, 300))
def test_half_shell_and_its_negatives_are_the_shell(a, key):
    """One point of each pair +-y: the walk and the negatives of its points
    are exactly the shell, and no point comes with its negative."""
    H = _gram_of(a)
    half = half_shell(H, key)
    assert all(_value(H, y) == key for y in half)
    assert not {tuple(-c for c in y) for y in half} & set(half)
    full = half + [tuple(-c for c in y) for y in half] + ([(0, 0, 0)] if key == 0 else [])
    assert sorted(full) == sorted(y for y, _ in form_points(H, key, key))


def test_half_shell_of_few_heads_builds_no_table_of_squares():
    """A shell with fewer heads than squares up to q key takes a root per
    head: at key 100 of diag(1, 1, 4e8), about 160 heads against a table of
    200,001 squares that would take over 10 MB."""
    H = ((1, 0, 0), (0, 1, 0), (0, 0, 4 * 10**8))
    tracemalloc.start()
    try:
        half = half_shell(H, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(half) == [(0, 10, 0), (6, -8, 0), (6, 8, 0), (8, -6, 0), (8, 6, 0), (10, 0, 0)]
    assert peak < 1_000_000


@pytest.mark.parametrize("space", [
    *(preset(name) for name in sorted(_PRESETS)),
    make_dicosm(), make_fcc_torus(), make_skew_dicosm(), make_amphicosm(),
], ids=lambda P: P.name)
def test_multiplicity_matches_the_full_shell_sum(space):
    """Twice the real part of the half-shell sum, plus the origin at key 0,
    is the character sum over the whole shell at every key up to 300, on
    diagonal and non-diagonal forms, screw lines and a glide plane."""
    data = _dual_action(space)
    shells = {}
    for y, key in form_points(data.gram, 0, 300):
        shells.setdefault(key, []).append(y)
    for key in range(301):
        re, im = _character_sum(data, shells.get(key, []))
        assert multiplicity(space, key) == _finalize(key, re, im, data.m)
