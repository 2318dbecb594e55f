"""The unrolled 3x3 kernels mat_mul and mat_vec against naive definitions,
and the packed theta product of the shell sizes against the ball.

The test oracles (class_oracle, presentation_oracle, conftest) call the same
kernels as the package, so these definitions are written out here and not
imported from linalg.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from platycosms.linalg import form_points, mat_mul, mat_vec
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


# The slot width follows the box count prod(2 isqrt(K/q) + 1): 39^3 < 2^16 <=
# 41^3 at K = 399 and 400 for q = 1, and 5^3 < 2^8 <= 7^3 at K = 143 and 144
# for q = 16.
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
