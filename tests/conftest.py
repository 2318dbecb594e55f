"""Shared test fixtures."""

import importlib.util
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from platycosms import geodesics, spectrum
from platycosms.euclid import (
    IDENTITY_ISOMETRY, Isometry, Lattice, PlatycosmPresentation, compose, inverse,
)
from platycosms.linalg import mat, mat_mul, mat_vec, transpose, vec, vec_add, vec_sub


def isometry_power(g: Isometry, n: int) -> Isometry:
    """g composed with itself n times (n < 0: powers of the inverse)."""
    if n < 0:
        return isometry_power(inverse(g), -n)
    out = IDENTITY_ISOMETRY
    for _ in range(n):
        out = compose(g, out)
    return out


def mat_sub(a, b):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b))


def rank(rows) -> int:
    """Rank of a small rational matrix by fraction-free integer elimination.
    Each row is first scaled by the lcm of its denominators, which does not
    change the rank; the elimination then stays in ints."""
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([int(x * den) for x in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f != 0:
                m[i] = [p[c] * a - f * b for a, b in zip(m[i], p)]
        r += 1
        if r == nrows:
            break
    return r


def same_lattice(a: Lattice, b: Lattice) -> bool:
    """Whether two lattices, given on any bases, are equal as sets."""
    return all(b.contains(v) for v in a.basis) and all(a.contains(v) for v in b.basis)


def make_tricosm() -> PlatycosmPresentation:
    """A three-fold screw quotient (hexagonal-type lattice, screw along the
    cube diagonal): a perfectly valid presentation whose exact spectrum
    lives outside the half-integer frequency grid and whose screw axis has
    irrational length scale -- the space this package correctly refuses."""
    rot = mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    third = Fraction(1, 3)
    screw = Isometry(rot, vec(third, third, third))
    rot2 = mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    screw2 = Isometry(rot2, vec(2 * third, 2 * third, 2 * third))
    lat = Lattice(mat([[1, -1, 0], [0, 1, -1], [1, 1, 1]]))
    ident = Isometry(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), vec(0, 0, 0))
    return PlatycosmPresentation("tricosm", lat, (ident, screw, screw2))


_IDENTITY = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
_SWAP_XZ = mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


# a rotation about x by the angle with cosine 3/5: rational, not signed-permutation
_ROTATE_X = mat(
    [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)], [0, Fraction(4, 5), Fraction(3, 5)]]
)


def _conjugate(P: PlatycosmPresentation, Q, name: str) -> PlatycosmPresentation:
    """The same space moved by the orthogonal matrix Q: lattice Q Lambda,
    reps (Q B Q^T, Q b)."""
    lat = Lattice(tuple(mat_vec(Q, b) for b in P.lattice.basis))
    reps = tuple(
        Isometry(mat_mul(mat_mul(Q, g.rot), transpose(Q)), mat_vec(Q, g.trans))
        for g in P.holonomy_reps
    )
    return PlatycosmPresentation(name, lat, reps)


def swap_xz(P: PlatycosmPresentation) -> PlatycosmPresentation:
    """The same space conjugated by the x <-> z swap: for Tetra and Didi
    the long axis becomes x and the lattice 2Z x Z x Z, so the dual
    lattice leaves the Z x Z x (1/2)Z grid."""
    return _conjugate(P, _SWAP_XZ, P.name + "_x_long")


def rotate_x(P: PlatycosmPresentation) -> PlatycosmPresentation:
    """The same space turned about x by arccos(3/5): rotations with
    denominator 25, screw axes such as (0, 4, -3), lattice vectors off
    the integer grid."""
    return _conjugate(P, _ROTATE_X, P.name + "_rotated")


def make_dicosm() -> PlatycosmPresentation:
    """Z x Z x 2Z divided by one half-turn screw about z."""
    screw = Isometry(mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), vec(0, 0, 1))
    lat = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    return PlatycosmPresentation("dicosm", lat, (Isometry(_IDENTITY, vec(0, 0, 0)), screw))


def make_fcc_torus() -> PlatycosmPresentation:
    """The torus of the face-centred cubic lattice.  Its dual lattice is
    body-centred, with the non-diagonal form Q = [[12, -4, -4], [-4, 12, -4],
    [-4, -4, 12]] on a reduced basis."""
    h = Fraction(1, 2)
    lat = Lattice(mat([[0, h, h], [h, 0, h], [h, h, 0]]))
    return PlatycosmPresentation("fcc_torus", lat, (Isometry(_IDENTITY, vec(0, 0, 0)),))


def make_skew_dicosm() -> PlatycosmPresentation:
    """A half-turn screw about z on the sheared lattice with rows (1, 0, 0),
    (1/2, 1, 0), (0, 0, 1): the form Q = [[5, -2, 0], [-2, 4, 0], [0, 0, 4]]
    is not diagonal, and the screw fixes a line of dual vectors."""
    h = Fraction(1, 2)
    screw = Isometry(mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), vec(0, 0, h))
    lat = Lattice(mat([[1, 0, 0], [h, 1, 0], [0, 0, 1]]))
    return PlatycosmPresentation("skew_dicosm", lat, (Isometry(_IDENTITY, vec(0, 0, 0)), screw))


def make_amphicosm() -> PlatycosmPresentation:
    """Z^3 divided by the glide (x, y, z) -> (x + 1/2, y, -z), whose fixed
    dual vectors form a plane rather than a line."""
    glide = Isometry(mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]]), vec(Fraction(1, 2), 0, 0))
    lat = Lattice(_IDENTITY)
    return PlatycosmPresentation(
        "amphicosm", lat, (Isometry(_IDENTITY, vec(0, 0, 0)), glide)
    )


def presentations_of(P: PlatycosmPresentation):
    """P and other presentations of the same space: reps unreduced by
    lattice vectors, the origin shifted by a rational vector (B, b) ->
    (B, b + s - B s), the lattice on a unimodularly changed basis, and the
    x <-> z swap conjugate (the only one whose lattice moves)."""
    lat = P.lattice
    unreduced = tuple(
        Isometry(g.rot, vec_add(g.trans, lat.from_coords((1, -2, i)))) if i else g
        for i, g in enumerate(P.holonomy_reps)
    )
    s = vec(Fraction(1, 3), Fraction(-1, 2), Fraction(1, 5))
    shifted = tuple(
        Isometry(g.rot, vec_add(g.trans, vec_sub(s, mat_vec(g.rot, s))))
        for g in P.holonomy_reps
    )
    rebased = Lattice(mat_mul(mat([[1, 1, 0], [0, 1, 1], [1, 1, 1]]), lat.basis))
    return [
        P,
        PlatycosmPresentation(P.name, lat, unreduced),
        PlatycosmPresentation(P.name, lat, shifted),
        PlatycosmPresentation(P.name, rebased, P.holonomy_reps),
    ], swap_xz(P)


def variant_document(base: str, kind: int, seed: int, name: str) -> dict:
    """The space document of a variant of `base` from the benchmark's
    generator (`perfbench/variants.py`), which imports nothing from the
    package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "variants.py"
    spec = importlib.util.spec_from_file_location("perfbench_variants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.variant(base, kind, name, random.Random(seed))


def class_census(P: PlatycosmPresentation, max_length) -> list:
    """((length, twist, imprimitivity), witness) for every unoriented
    twisted class the enumerator finds to `max_length`, in key order."""
    table = geodesics._class_table(P)
    return [((Fraction(length, table.length_den), table.fams[f].twist_over_pi, k),
             geodesics._witness(P, table, f, z))
            for f, z, length, k in geodesics._census(table, Fraction(max_length))]


def clear_spectrum_memos() -> None:
    """Empty the spectrum's two memos of one comparison, so the next table
    assembles anew and its probes walk their shells."""
    spectrum._assembly.cache_clear()
    spectrum._probe_shell.cache_clear()


@pytest.fixture(autouse=True)
def fresh_spectrum_memos():
    """Every test starts with empty comparison memos: a table built under a
    fresh name is then also a fresh assembly."""
    clear_spectrum_memos()
