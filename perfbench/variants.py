"""Seeded presentation variants of Tetra, Didi and the dicosm, as JSON
space documents.

The generator knows the spaces only from their definitions (the two-story
torus Z x Z x 2Z divided by a quarter-turn screw, by three half-turn
screws, or, for the dicosm, by one half-turn screw about z) and does its
own exact arithmetic; it imports
nothing from the package under test.  Every variant is the same manifold
as its preset, so every expected output is independent of the variant.

A variant may apply any subset of four presentation changes (the "kind",
a 4-bit mask):

  bit 0  conjugation by a signed permutation that fixes the z axis
         (swap x and y, flip any signs); the lattice Z x Z x 2Z is kept,
         so the long axis stays z
  bit 1  an origin shift by a small rational vector s: (B, b) becomes
         (B, b + s - B s)
  bit 2  non-identity coset representatives unreduced by small lattice
         vectors
  bit 3  the lattice basis replaced by U * basis for a unimodular U
"""

from __future__ import annotations

import random
from fractions import Fraction

KINDS = tuple(range(16))

_I = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_TWO_TALL = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
_H = Fraction(1, 2)


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def _transpose(a):
    return tuple(tuple(a[j][i] for j in range(3)) for i in range(3))


def _add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def _sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def _compose(g, h):
    """The affine map x -> g(h(x)) for maps given as (rot, trans)."""
    return _mat_mul(g[0], h[0]), _add(_mat_vec(g[0], h[1]), g[1])


def _reduce(v):
    """Translation reduced into the cell [0,1) x [0,1) x [0,2)."""
    return (v[0] % 1, v[1] % 1, v[2] % 2)


def _tetra_reps():
    screw = (((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, _H))
    reps = [(_I, (0, 0, 0))]
    g = screw
    for _ in range(3):
        reps.append((g[0], _reduce(g[1])))
        g = _compose(screw, g)
    return reps


def _didi_reps():
    return [
        (_I, (0, 0, 0)),
        (((1, 0, 0), (0, -1, 0), (0, 0, -1)), (_H, 0, 0)),
        (((-1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, _H, 1)),
        (((-1, 0, 0), (0, -1, 0), (0, 0, 1)), (_H, _H, 1)),
    ]


def _dicosm_reps():
    return [(_I, (0, 0, 0)), (((-1, 0, 0), (0, -1, 0), (0, 0, 1)), (0, 0, 1))]


BASES = {"tetra": _tetra_reps, "didi": _didi_reps, "dicosm": _dicosm_reps}


def _signed_permutation(rng: random.Random):
    rows = [[0, 0, 0] for _ in range(3)]
    perm = (1, 0) if rng.random() < 0.5 else (0, 1)
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((1, -1))
    rows[2][2] = rng.choice((1, -1))
    return tuple(tuple(r) for r in rows)


def _unimodular(rng: random.Random):
    """Product of a few elementary row operations with small multipliers."""
    u = [list(r) for r in _I]
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5:
        i, j = rng.sample(range(3), 2)
        u[i], u[j] = u[j], u[i]
    return tuple(tuple(r) for r in u)


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((2, 3, 4, 5, 6, 8)))


def variant(base: str, kind: int, name: str, rng: random.Random) -> dict:
    """Space document of one variant of `base`, a key of BASES."""
    reps = BASES[base]()
    lattice = _TWO_TALL
    if kind & 1:
        r = _signed_permutation(rng)
        rt = _transpose(r)
        reps = [(_mat_mul(_mat_mul(r, b), rt), _mat_vec(r, t)) for b, t in reps]
        lattice = tuple(_mat_vec(r, row) for row in lattice)
    if kind & 2:
        s = tuple(_small_rational(rng) for _ in range(3))
        reps = [(b, _sub(_add(t, s), _mat_vec(b, s))) for b, t in reps]
    if kind & 4:
        shifted = [reps[0]]
        for b, t in reps[1:]:
            coeffs = [rng.randint(-2, 2) for _ in range(3)]
            lam = _mat_vec(_transpose(lattice), coeffs)
            shifted.append((b, _add(t, lam)))
        reps = shifted
    if kind & 8:
        lattice = _mat_mul(_unimodular(rng), lattice)
    return {
        "name": name,
        "lattice": [[_text(c) for c in row] for row in lattice],
        "reps": [
            {"rot": [[_text(c) for c in row] for row in b], "trans": [_text(c) for c in t]}
            for b, t in reps
        ],
    }


def _text(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
