"""The unrolled 3x3 kernels mat_mul and mat_vec against naive definitions,
the one Hermite reduction behind the integer kernels and solves, and the
packed theta product of the shell sizes against the ball.

The test oracles (class_oracle, presentation_oracle, conftest) call the same
kernels as the package, so these definitions are written out here and not
imported from linalg.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st

from conftest import rank
from platycosms.linalg import (
    form_points, hermite, integer_kernel, mat_mul, mat_vec, solve_integer,
)
from platycosms.spectrum import _shell_sizes


def naive_mat_mul(a, b):
    out = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                out[i][j] += a[i][k] * b[k][j]
    return out


def naive_mat_vec(m, v):
    out = [0, 0, 0]
    for i in range(3):
        for k in range(3):
            out[i] += m[i][k] * v[k]
    return out


ints = st.integers(-(10**6), 10**6)
entries = st.one_of(ints, st.fractions(max_denominator=60))
int_vectors = st.lists(ints, min_size=3, max_size=3)
vectors = st.lists(entries, min_size=3, max_size=3)
int_matrices = st.lists(int_vectors, min_size=3, max_size=3)
matrices = st.lists(vectors, min_size=3, max_size=3)


def as_given(rows, as_tuple: bool):
    """The matrix as a list of lists or as a tuple of tuples."""
    return tuple(map(tuple, rows)) if as_tuple else [list(r) for r in rows]


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(matrices, int_matrices), st.one_of(matrices, int_matrices),
       st.booleans(), st.booleans())
def test_mat_mul_matches_triple_loop(a, b, a_tuple, b_tuple):
    got = mat_mul(as_given(a, a_tuple), as_given(b, b_tuple))
    assert type(got) is tuple and all(type(row) is tuple for row in got)
    hash(got)
    assert got == tuple(map(tuple, naive_mat_mul(a, b)))
    if all(type(x) is int for row in (*a, *b) for x in row):
        assert all(type(x) is int for row in got for x in row)


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(matrices, int_matrices), st.one_of(vectors, int_vectors),
       st.booleans(), st.booleans())
def test_mat_vec_matches_double_loop(m, v, m_tuple, v_tuple):
    got = mat_vec(as_given(m, m_tuple), tuple(v) if v_tuple else list(v))
    assert type(got) is tuple and len(got) == 3
    hash(got)
    assert got == tuple(naive_mat_vec(m, v))
    if all(type(x) is int for x in (*v, *(x for row in m for x in row))):
        assert all(type(x) is int for x in got)


def test_results_compare_equal_to_tuple_literals():
    half = Fraction(1, 2)
    quarter_turn = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    assert mat_mul(quarter_turn, quarter_turn) == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    index = {((-1, 0, 0), (0, -1, 0), (0, 0, 1)): "half turn"}
    assert index.get(mat_mul(quarter_turn, quarter_turn)) == "half turn"
    # Fraction entries with denominator 1 hash and compare as ints
    scaled = mat_mul(((half, 0, 0), (0, half, 0), (0, 0, half)), [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert index.get(mat_mul(scaled, mat_mul(quarter_turn, quarter_turn))) == "half turn"
    assert mat_vec(quarter_turn, [half, 0, 3]) == (0, half, 3)


SQUARE_2 = [[1, 2], [3, 4]]
TALL_4x3 = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 1]]
WIDE_3x4 = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 1, 2, 3]]
CUBE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("bad", [SQUARE_2, TALL_4x3, WIDE_3x4])
def test_other_shapes_are_refused(bad):
    with pytest.raises(ValueError):
        mat_mul(bad, CUBE)
    with pytest.raises(ValueError):
        mat_mul(CUBE, bad)
    with pytest.raises(ValueError):
        mat_vec(bad, [1, 2, 3])


@pytest.mark.parametrize("v", [[1, 2], [1, 2, 3, 4]])
def test_other_vector_lengths_are_refused(v):
    with pytest.raises(ValueError):
        mat_vec(CUBE, v)


# --- the Hermite reduction -------------------------------------------------------

# Row counts of the integer systems the package solves over Z^3: a twist
# family's axis form (1), a rotation's fixed functionals (up to 2, and 3
# for I - A), and `betti_one`'s three rows per holonomy rep (9 for four reps).
SHAPES = (1, 2, 3, 9)


def apply(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


def naive_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * c * naive_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, c in enumerate(m[0]) if c)


def unimodular(n):
    """An n x n integer matrix of determinant +-1: a signed permutation
    followed by row additions."""
    def build(perm, signs, adds):
        u = [[(-1 if s else 1) * int(j == p) for j in range(n)] for p, s in zip(perm, signs)]
        for i, j, c in adds:
            if i != j:
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        return u

    index = st.integers(0, n - 1)
    return st.builds(build, st.permutations(range(n)),
                     st.lists(st.booleans(), min_size=n, max_size=n),
                     st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=2 * n))


def products(m):
    """(a, P, d) with a = P D Q for unimodular P (m x m) and Q (3 x 3) and
    D the m x 3 matrix with diagonal d, so that a Z^3 = P D Z^3."""
    def build(P, d, Q):
        D = [[d[i] if i == j else 0 for j in range(3)] for i in range(m)]
        PD = [apply(list(zip(*D)), row) for row in P]
        return [apply(list(zip(*Q)), row) for row in PD], P, d

    k = min(m, 3)
    return st.builds(build, unimodular(m), st.lists(st.integers(0, 5), min_size=k, max_size=k),
                     unimodular(3))


def systems(m):
    """m x 3 integer matrices: small random entries, or products P D Q,
    which are often rank deficient."""
    return st.one_of(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                              min_size=m, max_size=m),
                     products(m).map(lambda t: t[0]))


any_system = st.sampled_from(SHAPES).flatmap(systems)


@settings(max_examples=60, deadline=None, database=None)
@given(any_system)
def test_hermite_is_a_unimodular_echelon_reduction(a):
    H, U, r = hermite(a)
    assert naive_det(U) in (1, -1)
    assert H == [apply(a, u) for u in U]  # H = U a^T, row by row
    pivots = [next((j for j, c in enumerate(h) if c), None) for h in H]
    assert r == rank(a)
    assert None not in pivots[:r] and pivots[r:] == [None] * (3 - r)
    assert all(p < q for p, q in zip(pivots[:r], pivots[1:r]))
    assert all(H[i][p] > 0 for i, p in enumerate(pivots[:r]))
    # entries above a pivot are reduced into [0, pivot)
    assert all(0 <= H[j][p] < H[i][p] for i, p in enumerate(pivots[:r]) for j in range(i))


def maximal_minors(rows):
    return [naive_det([[row[c] for c in cols] for row in rows])
            for cols in combinations(range(3), len(rows))]


@settings(max_examples=60, deadline=None, database=None)
@given(any_system)
def test_integer_kernel_is_a_basis_of_every_integer_solution(a):
    basis = integer_kernel(a)
    assert len(basis) == 3 - rank(a)
    assert all(apply(a, x) == [0] * len(a) for x in basis)
    # k independent integer vectors span every integer vector of their
    # rational span exactly when the gcd of their k x k minors is 1
    if basis:
        assert gcd(*maximal_minors(basis)) == 1


@settings(max_examples=60, deadline=None, database=None)
@given(any_system, st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_solve_integer_finds_a_preimage(a, x0):
    b = apply(a, x0)
    x = solve_integer(a, b)
    assert x is not None and apply(a, x) == b


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(SHAPES).flatmap(products), st.data())
def test_solve_integer_refuses_a_right_side_off_the_lattice(system, data):
    a, P, d = system
    d = d + [0] * (len(a) - len(d))  # D has zero rows past the third
    off = [i for i, di in enumerate(d) if di != 1]
    assume(off)
    i = data.draw(st.sampled_from(off))
    # a z = P e_i asks d_i (Q z)_i = 1.  For d_i >= 2, P e_i = a Q^-1 e_i / d_i
    # lies in a Q^3 but not in a Z^3; for d_i = 0 it is outside a Q^3.
    b = [row[i] for row in P]
    assert solve_integer(a, b) is None
    assert solve_integer(a, [d[i] * c for c in b]) is not None


# Examples where the old box-count width prod(2 isqrt(K/q) + 1) changed:
# 39^3 < 2^16 <= 41^3 at K = 399 and 400 for q = 1, and 5^3 < 2^8 <= 7^3 at
# K = 143 and 144 for q = 16.
@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(1, 16), min_size=3, max_size=3), st.integers(0, 3000))
@example([1, 1, 1], 399)
@example([1, 1, 1], 400)
@example([16, 16, 16], 143)
@example([16, 16, 16], 144)
@example([3, 1, 7], 0)
@example([5, 7, 9], 4)  # below every q
def test_packed_theta_product_matches_the_ball(qs, max_key):
    gram = tuple(tuple(q if i == j else 0 for j in range(3)) for i, q in enumerate(qs))
    counts = [0] * (max_key + 1)
    for _, key in form_points(gram, 0, max_key):
        counts[key] += 1
    assert _shell_sizes(gram, max_key) == counts


def _theta_product(qs, max_key):
    """Coefficients of prod_q sum_y x^(q y^2) up to x^max_key, by sparse
    convolution of the series."""
    counts = Counter({0: 1})
    for q in qs:
        reach = isqrt(max_key // q)
        squares = [q * y * y for y in range(-reach, reach + 1)]
        step = Counter()
        for key, c in counts.items():
            for s in squares:
                if key + s <= max_key:
                    step[key + s] += c
        counts = step
    return [counts[key] for key in range(max_key + 1)]


# The slot width is the least that holds 2 (2 isqrt(K/q_2) + 1)(2 isqrt(K/q_3)
# + 1) for the two largest q.  Below, each pair of keys crosses a width:
# 2 * 11^2 = 242 < 2^8 <= 2 * 13^2 = 338, and
# 2 * 181^2 = 65,522 < 2^16 <= 2 * 183^2 = 66,978.
@pytest.mark.parametrize("qs, max_key", [
    ((4, 4, 1), 143), ((4, 4, 1), 144), ((4, 4, 1), 33123), ((4, 4, 1), 33124),
    ((1, 1, 1), 35), ((1, 1, 1), 36), ((1, 1, 1), 8280), ((1, 1, 1), 8281),
])
def test_packed_theta_product_at_each_slot_width(qs, max_key):
    gram = tuple(tuple(q if i == j else 0 for j in range(3)) for i, q in enumerate(qs))
    counts = _theta_product(qs, max_key)
    big, bigger = sorted(qs)[1:]
    assert max(counts) <= 2 * (2 * isqrt(max_key // big) + 1) * (2 * isqrt(max_key // bigger) + 1)
    assert _shell_sizes(gram, max_key) == counts
