"""Exact affine isometries of 3-space, lattices, and platycosm presentations.

A compact flat 3-manifold is presented here as a translation lattice
together with a finite list of holonomy coset representatives (affine
isometries, the first being the identity).  Four built-in presentations
are provided:

  cubical_torocosm   R^3 / Z^3
  two_tall           R^3 / (Z x Z x 2Z)
  tetra              two_tall divided by a quarter-turn screw motion
  didi               two_tall divided by three half-turn screw motions

All arithmetic in this module is exact rational; no floating point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InvalidPresentationError, UnknownPresetError
from .linalg import (
    IDENTITY,
    Mat3,
    Vec3,
    det3,
    dot,
    fraction_to_str,
    hnf_rows,
    inv3,
    mat,
    mat_mul,
    mat_sub,
    mat_vec,
    nullspace,
    rank,
    solve_rational_in_lattice,
    transpose,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)

__all__ = [
    "Isometry",
    "Lattice",
    "PlatycosmPresentation",
    "PRESET_NAMES",
    "compose",
    "inverse",
    "preset",
    "translation_lattice",
    "volume",
    "betti_one",
    "presentation_to_json",
    "presentation_from_json",
    "load_space_file",
]

# Size of every memo cache in the package: it holds the working set of a
# long-lived process, while a stream of new presentations cannot grow
# memory without limit.
CACHE_SIZE = 128


@dataclass(frozen=True)
class Isometry:
    """Affine map x -> rot.x + trans with exactly orthogonal rational rot."""

    rot: Mat3
    trans: Vec3

    def __post_init__(self):
        object.__setattr__(self, "rot", mat(self.rot))
        object.__setattr__(self, "trans", vec(*self.trans))
        if mat_mul(transpose(self.rot), self.rot) != IDENTITY:
            raise InvalidPresentationError("rotational part is not orthogonal")
        if det3(self.rot) not in (1, -1):
            raise InvalidPresentationError("rotational part has determinant != +-1")

    def apply(self, point: Vec3) -> Vec3:
        return vec_add(mat_vec(self.rot, vec(*point)), self.trans)

    @property
    def is_translation(self) -> bool:
        return self.rot == IDENTITY

    @property
    def is_identity(self) -> bool:
        return self.rot == IDENTITY and self.trans == vec(0, 0, 0)


IDENTITY_ISOMETRY = Isometry(IDENTITY, (0, 0, 0))


def _trusted(rot: Mat3, trans: Vec3) -> Isometry:
    """Isometry from parts already in canonical Fraction form, without
    re-validation: products and transposes of validated orthogonal
    matrices stay orthogonal with determinant +-1."""
    g = object.__new__(Isometry)
    object.__setattr__(g, "rot", rot)
    object.__setattr__(g, "trans", trans)
    return g


def translation(v) -> Isometry:
    return Isometry(IDENTITY, vec(*v))


def compose(g: Isometry, h: Isometry) -> Isometry:
    """The isometry x -> g(h(x))."""
    return _trusted(mat_mul(g.rot, h.rot), vec_add(mat_vec(g.rot, h.trans), g.trans))


def inverse(g: Isometry) -> Isometry:
    """Group inverse; exact, using rot^-1 = rot^T for orthogonal rot."""
    rot_inv = transpose(g.rot)
    return _trusted(rot_inv, vec_scale(-1, mat_vec(rot_inv, g.trans)))


def isometry_power(g: Isometry, n: int) -> Isometry:
    if n < 0:
        return isometry_power(inverse(g), -n)
    out = IDENTITY_ISOMETRY
    for _ in range(n):
        out = compose(g, out)
    return out


@dataclass(frozen=True)
class Lattice:
    """Rank-3 lattice spanned by the rows of `basis` (exact rationals)."""

    basis: Mat3

    def __post_init__(self):
        object.__setattr__(self, "basis", mat(self.basis))
        if det3(self.basis) == 0:
            raise InvalidPresentationError("lattice basis is degenerate")

    @cached_property
    def _coords_matrix(self) -> Mat3:
        # v = sum x_i b_i  <=>  x = (B^T)^-1 v  with basis vectors as rows of B
        return inv3(transpose(self.basis))

    def coords(self, v: Vec3) -> Vec3:
        return mat_vec(self._coords_matrix, vec(*v))

    def from_coords(self, x) -> Vec3:
        x = vec(*x)
        out = vec(0, 0, 0)
        for xi, bi in zip(x, self.basis):
            out = vec_add(out, vec_scale(xi, bi))
        return out

    def contains(self, v: Vec3) -> bool:
        return all(c.denominator == 1 for c in self.coords(v))

    def covolume(self) -> Fraction:
        return abs(det3(self.basis))

    def reduce(self, v: Vec3) -> Vec3:
        """Canonical representative of v modulo the lattice (coords in [0,1))."""
        x = self.coords(v)
        frac = vec(*(c - math.floor(c) for c in x))
        return self.from_coords(frac)

    def same_lattice(self, other: "Lattice") -> bool:
        return all(other.contains(b) for b in self.basis) and all(
            self.contains(b) for b in other.basis
        )


def lattice_from_generators(vectors) -> Lattice:
    """Smallest lattice containing all generators (must have rank 3)."""
    den = 1
    vs = [vec(*v) for v in vectors]
    for v in vs:
        for c in v:
            den = den * c.denominator // math.gcd(den, c.denominator)
    rows = [[int(c * den) for c in v] for v in vs]
    reduced = hnf_rows(rows)
    if len(reduced) != 3:
        raise InvalidPresentationError("generators do not span 3-space")
    return Lattice(mat([[Fraction(c, den) for c in row] for row in reduced]))


@dataclass(frozen=True)
class PlatycosmPresentation:
    """Translation lattice plus holonomy coset representatives.

    Invariants (checked on construction):
      * the first representative is the identity and rotational parts are
        pairwise distinct and closed under multiplication;
      * every representative maps the lattice to itself;
      * composing two representatives lands on a representative modulo a
        lattice translation (group closure of the quotient);
      * every non-identity representative, composed with any lattice
        translation, acts freely on 3-space.
    """

    name: str
    lattice: Lattice
    holonomy_reps: tuple[Isometry, ...]

    def __post_init__(self):
        object.__setattr__(self, "holonomy_reps", tuple(self.holonomy_reps))
        self._validate()

    def _validate(self):
        reps = self.holonomy_reps
        lat = self.lattice
        if not reps or not reps[0].is_identity:
            raise InvalidPresentationError("first holonomy rep must be the identity")
        rotations = [g.rot for g in reps]
        if len(set(rotations)) != len(rotations):
            raise InvalidPresentationError("holonomy rotational parts must be distinct")
        rotation_set = set(rotations)
        for a in rotations:
            for b in rotations:
                if mat_mul(a, b) not in rotation_set:
                    raise InvalidPresentationError(
                        "holonomy rotational parts are not closed under product"
                    )
        for g in reps:
            for b in lat.basis:
                if not lat.contains(mat_vec(g.rot, b)):
                    raise InvalidPresentationError(
                        "holonomy does not preserve the translation lattice"
                    )
        by_rotation = {g.rot: g for g in reps}
        for g in reps:
            for h in reps:
                gh = compose(g, h)
                target = by_rotation[gh.rot]
                if not lat.contains(vec_sub(gh.trans, target.trans)):
                    raise InvalidPresentationError(
                        "coset representatives are not closed modulo the lattice"
                    )
        for g in reps[1:]:
            self._check_fixed_point_free(g)

    def _check_fixed_point_free(self, g: Isometry):
        # (rot, trans + lam) has a fixed point iff the component of
        # trans + lam in the rot-fixed subspace vanishes; decide exactly by
        # solving <lam, f_i> = -<trans, f_i> for lam in the lattice.
        fix = nullspace(mat_sub(IDENTITY, g.rot))
        if not fix:
            raise InvalidPresentationError(
                "a holonomy rep with no +1 eigenvalue always has a fixed point"
            )
        rows = [[dot(b, f) for b in self.lattice.basis] for f in fix]
        rhs = [-dot(g.trans, f) for f in fix]
        if solve_rational_in_lattice(rows, rhs) is not None:
            raise InvalidPresentationError(
                "holonomy rep composed with a lattice translation fixes a point"
            )

    def rep_by_rotation(self, rot: Mat3) -> Isometry:
        for g in self.holonomy_reps:
            if g.rot == rot:
                return g
        raise KeyError("rotation is not a holonomy rotational part")

    def contains(self, g: Isometry) -> bool:
        """Membership of an isometry in the deck group."""
        try:
            rep = self.rep_by_rotation(g.rot)
        except KeyError:
            return False
        return self.lattice.contains(vec_sub(g.trans, rep.trans))


# --- built-in presentations -------------------------------------------------

QUARTER_TURN_SCREW = Isometry(
    mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), vec(0, 0, Fraction(1, 2))
)
HALF_TURN_SCREW_X = Isometry(
    mat([[1, 0, 0], [0, -1, 0], [0, 0, -1]]), vec(Fraction(1, 2), 0, 0)
)
HALF_TURN_SCREW_Y = Isometry(
    mat([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]), vec(0, Fraction(1, 2), 1)
)
HALF_TURN_SCREW_Z = Isometry(
    mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), vec(Fraction(1, 2), Fraction(1, 2), 1)
)

_TWO_TALL_LATTICE = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
_CUBICAL_LATTICE = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))

PRESET_NAMES = ("cubical_torocosm", "two_tall", "tetra", "didi")


def _reduced(g: Isometry, lat: Lattice) -> Isometry:
    return Isometry(g.rot, lat.reduce(g.trans))


def preset(name: str) -> PlatycosmPresentation:
    """One of the built-in presentations; holonomy translations are stored
    reduced into the fundamental cell of the lattice."""
    if name == "cubical_torocosm":
        return PlatycosmPresentation(name, _CUBICAL_LATTICE, (IDENTITY_ISOMETRY,))
    if name == "two_tall":
        return PlatycosmPresentation(name, _TWO_TALL_LATTICE, (IDENTITY_ISOMETRY,))
    if name == "tetra":
        lat = _TWO_TALL_LATTICE
        t = QUARTER_TURN_SCREW
        reps = (
            IDENTITY_ISOMETRY,
            _reduced(t, lat),
            _reduced(compose(t, t), lat),
            _reduced(compose(t, compose(t, t)), lat),
        )
        return PlatycosmPresentation(name, lat, reps)
    if name == "didi":
        lat = _TWO_TALL_LATTICE
        reps = (
            IDENTITY_ISOMETRY,
            _reduced(HALF_TURN_SCREW_X, lat),
            _reduced(HALF_TURN_SCREW_Y, lat),
            _reduced(HALF_TURN_SCREW_Z, lat),
        )
        return PlatycosmPresentation(name, lat, reps)
    raise UnknownPresetError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


# --- derived quantities ------------------------------------------------------


def translation_lattice(P: PlatycosmPresentation) -> Lattice:
    """Maximal lattice of pure translations in the deck group, on its
    Hermite normal form basis.

    This is the stored lattice itself: validation proves that every
    product of reps whose rotational part is the identity lies in it, and
    that the rotational parts are pairwise distinct, so a deck element
    with identity rotation is the identity rep shifted by a lattice
    vector.
    """
    return lattice_from_generators(P.lattice.basis)


def volume(P: PlatycosmPresentation) -> Fraction:
    """Riemannian volume: covolume of the translation lattice over the
    number of holonomy cosets."""
    return translation_lattice(P).covolume() / len(P.holonomy_reps)


def betti_one(P: PlatycosmPresentation) -> int:
    """First Betti number: dimension of the common fixed subspace of all
    holonomy rotational parts."""
    rows = []
    for g in P.holonomy_reps:
        rows.extend(mat_sub(IDENTITY, g.rot))
    return 3 - rank(rows)


def fixed_sublattice_rank(P: PlatycosmPresentation) -> int:
    """Rank of the sublattice of the translation lattice fixed by every
    holonomy rotational part (equals betti_one; kept as a cross-check)."""
    lat = translation_lattice(P)
    rows = []
    for g in P.holonomy_reps:
        d = mat_sub(IDENTITY, g.rot)
        for r in range(3):
            rows.append([dot(d[r], b) for b in lat.basis])
    return 3 - rank(rows)


# --- JSON space files --------------------------------------------------------


def presentation_to_json(P: PlatycosmPresentation) -> dict:
    return {
        "name": P.name,
        "lattice": [[fraction_to_str(c) for c in row] for row in P.lattice.basis],
        "reps": [
            {
                "rot": [[fraction_to_str(c) for c in row] for row in g.rot],
                "trans": [fraction_to_str(c) for c in g.trans],
            }
            for g in P.holonomy_reps
        ],
    }


def presentation_from_json(doc: dict) -> PlatycosmPresentation:
    try:
        name = doc["name"]
        basis = mat([[Fraction(str(c)) for c in row] for row in doc["lattice"]])
        reps = tuple(
            Isometry(
                mat([[Fraction(str(c)) for c in row] for row in r["rot"]]),
                vec(*(Fraction(str(c)) for c in r["trans"])),
            )
            for r in doc["reps"]
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidPresentationError(f"malformed space document: {exc}") from exc
    return PlatycosmPresentation(str(name), Lattice(basis), reps)


def load_space_file(path) -> PlatycosmPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return presentation_from_json(json.load(fh))
