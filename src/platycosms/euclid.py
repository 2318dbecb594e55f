"""Exact affine isometries of 3-space, lattices, and platycosm presentations.

A compact flat 3-manifold is presented here as a translation lattice
together with a finite list of holonomy coset representatives (affine
isometries, the first being the identity).  Four built-in presentations
are provided:

  cubical_torocosm   R^3 / Z^3
  two_tall           R^3 / (Z x Z x 2Z)
  tetra              two_tall divided by a quarter-turn screw motion
  didi               two_tall divided by three half-turn screw motions

A presentation is lowered once, on construction, to its integer form
(`IntegerForm`): the lattice basis scaled to integers, each holonomy
rotation as an integer matrix on lattice coordinates, and each rep
translation as integer lattice coordinates over one common denominator.
Validation runs on that form, in Python ints, and so do the derived data
of the other modules (translation lattice, volume, class tables, the
dual action of the spectrum).  Fractions appear only at the boundary:
parsing, the `Isometry` and `Lattice` values handed out, and printed
output.  No floating point enters any of it.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import CutoffBudgetError, InvalidPresentationError, UnknownPresetError, abridged
from .linalg import (
    IDENTITY,
    Mat3,
    Vec3,
    adj3,
    det3,
    dot,
    fraction_to_str,
    hnf_rows,
    integer_kernel,
    inv3,
    mat,
    mat_mul,
    mat_vec,
    solve_integer,
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

IntVec = tuple[int, int, int]
IntMat = tuple[IntVec, IntVec, IntVec]


def _mat3(rows, what: str) -> Mat3:
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise InvalidPresentationError(f"{what} must be a 3x3 matrix")
    return mat(rows)


def _vec3(entries) -> Vec3:
    entries = tuple(entries)
    if len(entries) != 3:
        raise InvalidPresentationError("translation must have 3 entries")
    return vec(*entries)


def _scaled(rows) -> tuple[int, tuple]:
    """(d, d * rows): the least common denominator of rational rows and
    the rows scaled by it to integers."""
    d = math.lcm(*(c.denominator for row in rows for c in row))
    return d, tuple(tuple(c.numerator * (d // c.denominator) for c in row) for row in rows)


@dataclass(frozen=True)
class Isometry:
    """Affine map x -> rot.x + trans with exactly orthogonal rational rot."""

    rot: Mat3
    trans: Vec3

    def __post_init__(self):
        object.__setattr__(self, "rot", _mat3(self.rot, "rotational part"))
        object.__setattr__(self, "trans", _vec3(self.trans))
        # with R = d * rot integral: rot^T rot = I and det rot = +-1 in ints
        d, R = _scaled(self.rot)
        if mat_mul(transpose(R), R) != ((d * d, 0, 0), (0, d * d, 0), (0, 0, d * d)):
            raise InvalidPresentationError("rotational part is not orthogonal")
        if abs(det3(R)) != d ** 3:
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


@dataclass(frozen=True)
class Lattice:
    """Rank-3 lattice spanned by the rows of `basis` (exact rationals)."""

    basis: Mat3
    # (d, d * basis, det(d * basis)) with d the least common denominator
    scaled: tuple[int, IntMat, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", _mat3(self.basis, "lattice basis"))
        d, rows = _scaled(self.basis)
        det = det3(rows)
        if det == 0:
            raise InvalidPresentationError("lattice basis is degenerate")
        object.__setattr__(self, "scaled", (d, rows, det))

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


@dataclass(frozen=True)
class IntegerForm:
    """A presentation on integer lattice coordinates.

    With L the lattice basis (rows) and x the coordinates of a vector
    L^T x, `basis` is scale * L, holonomy rep i acts on coordinates by
    x -> rots[i] x + trans[i] / den, and rep a composed with rep b has
    rotation rots[product[a][b]]; rep inverse[a] has the inverse
    rotation of rep a.  `adj` is the adjugate of basis^T, so the
    coordinates of a vector v are scale * adj v / det.  `fixed[i - 1]`,
    the one kernel of rotation i > 0, is a basis of the integer
    functionals f with f rots[i] = f: freeness, screw axes and the
    spectrum's fixed dual sublattices are all read from it."""

    scale: int
    basis: IntMat
    det: int
    adj: IntMat
    rots: tuple[IntMat, ...]
    den: int
    trans: tuple[IntVec, ...]
    product: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    fixed: tuple[tuple[IntVec, ...], ...]

    def coords(self, v: Vec3, den: int = 1) -> Optional[IntVec]:
        """den times the lattice coordinates of v, or None when they are
        not integers."""
        q, (w,) = _scaled((v,))
        num = mat_vec(self.adj, w)
        div = self.det * q
        mult = self.scale * den
        if any(mult * c % div for c in num):
            return None
        return tuple(mult * c // div for c in num)  # type: ignore[return-value]


def _lower(lattice: Lattice, reps: tuple[Isometry, ...]) -> IntegerForm:
    """The integer form of a presentation, checking its invariants in the
    order the `PlatycosmPresentation` docstring lists them."""
    if not reps or not reps[0].is_identity:
        raise InvalidPresentationError("first holonomy rep must be the identity")
    scale, basis, det = lattice.scaled
    # rotations over one common denominator d: rep c is the product of
    # reps a and b when R_a R_b = d R_c
    scaled = [_scaled(g.rot) for g in reps]
    d = math.lcm(*(q for q, _ in scaled))
    cart = [tuple(tuple(c * (d // q) for c in row) for row in R) for q, R in scaled]
    if len(set(cart)) != len(cart):
        raise InvalidPresentationError("holonomy rotational parts must be distinct")
    index = {tuple(tuple(d * c for c in row) for row in R): i for i, R in enumerate(cart)}
    product = []
    for a in cart:
        row = []
        for b in cart:
            c = index.get(mat_mul(a, b))
            if c is None:
                raise InvalidPresentationError(
                    "holonomy rotational parts are not closed under product"
                )
            row.append(c)
        product.append(tuple(row))
    # on coordinates a rotation R acts as adj(B^T) R B^T / (det d), B = basis;
    # the lattice is preserved when that is integral
    adj = adj3(transpose(basis))
    rots = []
    for R in cart:
        num = mat_mul(mat_mul(adj, R), transpose(basis))
        if any(c % (det * d) for row in num for c in row):
            raise InvalidPresentationError(
                "holonomy does not preserve the translation lattice"
            )
        rots.append(tuple(tuple(c // (det * d) for c in row) for row in num))
    # translations: coordinates scale adj t / det over one reduced denominator
    q, ts = _scaled([g.trans for g in reps])
    nums = [mat_vec(adj, t) for t in ts]
    div = det * q
    if div < 0:
        div, nums = -div, [tuple(-c for c in x) for x in nums]
    g = math.gcd(div, *(scale * c for x in nums for c in x))
    den = div // g
    trans = [tuple(scale * c // g for c in x) for x in nums]
    for a, row in enumerate(product):
        for b, c in enumerate(row):
            shifted = mat_vec(rots[a], trans[b])
            if any((s + t - u) % den for s, t, u in zip(shifted, trans[a], trans[c])):
                raise InvalidPresentationError(
                    "coset representatives are not closed modulo the lattice"
                )
    # (A, x + c/den) fixes a point iff f . (x + c/den) = 0 for every
    # functional f fixed by A (f A = f), solvable for integral x
    fixed = []
    for A, c in zip(rots[1:], trans[1:]):
        kernel = integer_kernel([[int(i == j) - A[j][i] for j in range(3)] for i in range(3)])
        if not kernel:
            raise InvalidPresentationError(
                "a holonomy rep with no +1 eigenvalue always has a fixed point"
            )
        rows = [[den * x for x in f] for f in kernel]
        if solve_integer(rows, [-dot(f, c) for f in kernel]) is not None:
            raise InvalidPresentationError(
                "holonomy rep composed with a lattice translation fixes a point"
            )
        fixed.append(tuple(map(tuple, kernel)))
    return IntegerForm(
        scale=scale,
        basis=basis,
        det=det,
        adj=adj,
        rots=tuple(rots),
        den=den,
        trans=tuple(trans),
        product=tuple(product),
        inverse=tuple(row.index(0) for row in product),
        fixed=tuple(fixed),
    )


@dataclass(frozen=True)
class PlatycosmPresentation:
    """Translation lattice plus holonomy coset representatives.

    Invariants (checked on construction, on the integer form):
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
    form: IntegerForm = field(init=False, compare=False, repr=False)
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "holonomy_reps", tuple(self.holonomy_reps))
        object.__setattr__(self, "form", _lower(self.lattice, self.holonomy_reps))

    def __hash__(self) -> int:
        # every memo cache keys on presentations: hash the lattice and the
        # reps' Fractions once, on first use
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.name, self.lattice, self.holonomy_reps)))
        return self._hash

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
        return self.form.coords(vec_sub(g.trans, rep.trans)) is not None


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


def _screw_powers(t: Isometry) -> tuple[Isometry, ...]:
    """The identity, t, t^2 and t^3."""
    powers = [IDENTITY_ISOMETRY]
    for _ in range(3):
        powers.append(compose(t, powers[-1]))
    return tuple(powers)


# lattice and holonomy reps of each preset, their translations reduced into
# the fundamental cell of the lattice
_PRESETS = {
    "cubical_torocosm": (_CUBICAL_LATTICE, (IDENTITY_ISOMETRY,)),
    "two_tall": (_TWO_TALL_LATTICE, (IDENTITY_ISOMETRY,)),
    "tetra": (_TWO_TALL_LATTICE, tuple(
        _reduced(g, _TWO_TALL_LATTICE) for g in _screw_powers(QUARTER_TURN_SCREW)
    )),
    "didi": (_TWO_TALL_LATTICE, tuple(
        _reduced(g, _TWO_TALL_LATTICE)
        for g in (IDENTITY_ISOMETRY, HALF_TURN_SCREW_X, HALF_TURN_SCREW_Y, HALF_TURN_SCREW_Z)
    )),
}


def preset(name: str) -> PlatycosmPresentation:
    """One of the built-in presentations; holonomy translations are stored
    reduced into the fundamental cell of the lattice."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise UnknownPresetError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    return PlatycosmPresentation(name, *_PRESETS[name])


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
    form = P.form
    rows = hnf_rows(form.basis)
    return Lattice([[Fraction(c, form.scale) for c in row] for row in rows])


def volume(P: PlatycosmPresentation) -> Fraction:
    """Riemannian volume: covolume of the translation lattice over the
    number of holonomy cosets."""
    form = P.form
    return Fraction(abs(form.det), form.scale ** 3 * len(P.holonomy_reps))


def betti_one(P: PlatycosmPresentation) -> int:
    """First Betti number: dimension of the common fixed subspace of all
    holonomy rotational parts."""
    rows = [[int(i == j) - A[i][j] for j in range(3)] for A in P.form.rots for i in range(3)]
    return len(integer_kernel(rows))


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


_EXPONENT = re.compile(r"[eE]\s*([-+]?\d[\d_]*)")


def _numeral(entry) -> Fraction:
    """A space-file entry or a CLI length as a Fraction.  A numeral with
    more digits, or a larger decimal exponent, than Python's
    int-from-string limit is refused as over the budget before any large
    integer is built."""
    text = str(entry)
    # 0: no limit, as on Pythons older than the limit itself
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        exponent = _EXPONENT.search(text)
        if sum(ch.isdigit() for ch in text) > limit or (
            exponent is not None and abs(int(exponent.group(1))) > limit
        ):
            raise CutoffBudgetError(
                f"numeral {abridged(text)!r} has more than {limit} digits or an exponent "
                f"beyond {limit}, over the budget of an exact numeral"
            )
    return Fraction(text)


def _numerals(value, depth: int):
    """A JSON list (depth 1) or list of lists (depth 2) of numerals; a
    string is not read as a list of its characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    if depth == 1:
        return [_numeral(c) for c in value]
    return [_numerals(row, 1) for row in value]


def presentation_from_json(doc: dict) -> PlatycosmPresentation:
    """The presentation of a space document.  Numerals and shapes are read
    first, and their errors are reported as a malformed document; the
    isometries, the lattice and the group are checked after that, with
    their own messages."""
    try:
        name = doc["name"]
        basis = _mat3(_numerals(doc["lattice"], 2), "lattice basis")
        parts = [
            (_mat3(_numerals(r["rot"], 2), "rotational part"), _vec3(_numerals(r["trans"], 1)))
            for r in doc["reps"]
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError, RecursionError,
            CutoffBudgetError) as exc:
        raise InvalidPresentationError(f"malformed space document: {exc}") from exc
    reps = tuple(Isometry(rot, trans) for rot, trans in parts)
    return PlatycosmPresentation(str(name), Lattice(basis), reps)


def load_space_file(path) -> PlatycosmPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise InvalidPresentationError(
                "malformed space document: nested too deeply"
            ) from exc
    return presentation_from_json(doc)
