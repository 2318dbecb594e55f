"""Twisted closed geodesics of a platycosm via conjugacy classes.

A twisted closed geodesic corresponds to a conjugacy class of deck
transformations with non-identity rotational part; oppositely oriented
geodesics (an element and its inverse) are counted once.  For each class
we extract, exactly:

  length         axis component of the screw translation
  twist          rotation angle, folded into (0, pi], stored as a
                 rational multiple of pi
  imprimitivity  the largest k with witness = delta^k for a deck
                 transformation delta

Conjugacy is decided exactly: conjugation by a lattice translation moves
the screw translation by (I - B)Lambda, so classes are cosets of that
rank-2 sublattice in the invariant plane, further folded by the finitely
many holonomy conjugations and by inversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidPresentationError, UnsupportedGeometryError
from .euclid import CACHE_SIZE, Isometry, PlatycosmPresentation, _trusted, compose, inverse
from .linalg import (
    IDENTITY,
    Mat3,
    Vec3,
    dot,
    fraction_gcd,
    fraction_sqrt,
    fraction_to_str,
    hnf_rows,
    integer_kernel,
    mat_mul,
    mat_sub,
    mat_vec,
    nullspace,
    primitive_integer_vector,
    solve_rational_in_lattice,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)

__all__ = [
    "GeodesicClass",
    "BalanceEntry",
    "BalanceRow",
    "BalancePair",
    "twisted_classes",
    "imprimitivity",
    "twist_factor",
    "weight",
    "balance_table",
    "classes_to_csv",
    "balance_to_csv",
]

# twist angle (over pi) from the rotation trace: cos(theta) = (tr - 1)/2
_TWIST_FROM_COS = {
    Fraction(-1): Fraction(1),
    Fraction(-1, 2): Fraction(2, 3),
    Fraction(0): Fraction(1, 2),
    Fraction(1, 2): Fraction(1, 3),
}

# cylinder weight factor 1/sin^2(theta/2), exact for the half- and
# quarter-turn twists the balance bookkeeping covers
_WEIGHT_FACTOR = {
    Fraction(1): Fraction(1),
    Fraction(1, 2): Fraction(2),
}


def twist_factor(twist_over_pi: Fraction) -> Fraction:
    """Exact 1/sin^2(theta/2) for theta = pi and theta = pi/2."""
    factor = _WEIGHT_FACTOR.get(Fraction(twist_over_pi))
    if factor is None:
        raise UnsupportedGeometryError(
            f"no exact weight factor for twist {twist_over_pi}*pi"
        )
    return factor


@dataclass(frozen=True)
class GeodesicClass:
    """Aggregate of all unoriented twisted geodesics sharing a signature."""

    length: Fraction
    twist_over_pi: Fraction
    imprimitivity: int
    count: int
    witness: Isometry

    @property
    def signature(self) -> tuple[Fraction, Fraction, int]:
        return (self.length, self.twist_over_pi, self.imprimitivity)


@dataclass(frozen=True)
class _TwistFamily:
    """Exact screw-axis data for one holonomy rotation."""

    rot: Mat3
    axis: Vec3  # primitive integer direction
    axis_norm2: int
    axis_len: Fraction
    twist_over_pi: Fraction
    rep_trans: Vec3  # translation of the stored coset representative
    alpha: Fraction  # <rep_trans, axis>
    step: Fraction  # positive generator of <Lambda, axis>
    step_vector: Vec3  # lattice vector with <step_vector, axis> = step
    plane_basis: tuple[Vec3, Vec3]  # basis of Lambda intersect axis-perp
    conj_lattice: tuple[tuple[int, int], ...]  # HNF rows of (I-B)Lambda
    coset_reps: tuple[tuple[int, int], ...]

    def min_positive_dot(self) -> Fraction:
        """Smallest positive |alpha + step*Z| (nonzero by freeness)."""
        r = self.alpha - self.step * math.floor(self.alpha / self.step)
        if r == 0:
            raise InvalidPresentationError("family contains a zero-length screw")
        return min(r, self.step - r)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return (g, y, x - (a // b) * y)


def _plane_coords(w1: Vec3, w2: Vec3, v: Vec3) -> tuple[Fraction, Fraction]:
    """Coordinates of v in the plane spanned by w1, w2 (v must lie in it)."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = w1[i] * w2[j] - w1[j] * w2[i]
        if det != 0:
            y1 = (v[i] * w2[j] - v[j] * w2[i]) / det
            y2 = (w1[i] * v[j] - w1[j] * v[i]) / det
            k = 3 - i - j
            if w1[k] * y1 + w2[k] * y2 != v[k]:
                raise ValueError("vector does not lie in the invariant plane")
            return y1, y2
    raise ValueError("degenerate plane basis")


def _build_family(P: PlatycosmPresentation, g: Isometry) -> _TwistFamily:
    B = g.rot
    diff = mat_sub(IDENTITY, B)
    kernel = nullspace(diff)
    if len(kernel) != 1:
        raise UnsupportedGeometryError(
            "twisted holonomy must be a rotation with a one-dimensional axis"
        )
    axis_ints = primitive_integer_vector(kernel[0])
    axis = vec(*axis_ints)
    axis_norm2 = int(dot(axis, axis))
    axis_len = fraction_sqrt(Fraction(axis_norm2))
    if axis_len is None:
        raise UnsupportedGeometryError("screw axis has irrational length scale")
    trace = B[0][0] + B[1][1] + B[2][2]
    twist = _TWIST_FROM_COS.get(Fraction(trace - 1, 2))
    if twist is None:
        raise UnsupportedGeometryError("twist is not a rational multiple of pi")

    basis = P.lattice.basis
    dots = [dot(b, axis) for b in basis]
    step = fraction_gcd(dots)
    den = 1
    for q in dots:
        den = den * q.denominator // math.gcd(den, q.denominator)
    ints = [int(q * den) for q in dots]
    g12, x1, x2 = _ext_gcd(ints[0], ints[1])
    _g, y12, y3 = _ext_gcd(g12, ints[2])
    coeffs = (x1 * y12, x2 * y12, y3)
    step_vector = P.lattice.from_coords(coeffs)
    assert dot(step_vector, axis) == step

    plane_coord_basis = integer_kernel([ints])
    w1 = P.lattice.from_coords(plane_coord_basis[0])
    w2 = P.lattice.from_coords(plane_coord_basis[1])

    rows = []
    for b in basis:
        y1, y2 = _plane_coords(w1, w2, mat_vec(diff, b))
        if y1.denominator != 1 or y2.denominator != 1:
            raise InvalidPresentationError("holonomy does not preserve the lattice")
        rows.append([int(y1), int(y2)])
    H = hnf_rows(rows)
    if len(H) != 2 or H[1][0] != 0 or H[0][0] <= 0 or H[1][1] <= 0:
        raise UnsupportedGeometryError("conjugation sublattice is not rank 2")
    reps = tuple((i, j) for i in range(H[0][0]) for j in range(H[1][1]))
    return _TwistFamily(
        rot=B,
        axis=axis,
        axis_norm2=axis_norm2,
        axis_len=axis_len,
        twist_over_pi=twist,
        rep_trans=g.trans,
        alpha=dot(g.trans, axis),
        step=step,
        step_vector=step_vector,
        plane_basis=(w1, w2),
        conj_lattice=tuple(tuple(r) for r in H),
        coset_reps=reps,
    )


@lru_cache(maxsize=CACHE_SIZE)
def _families(P: PlatycosmPresentation) -> dict[Mat3, _TwistFamily]:
    return {g.rot: _build_family(P, g) for g in P.holonomy_reps if not g.is_identity}


def _translation_canonical(P: PlatycosmPresentation, g: Isometry):
    """Canonical form of g modulo conjugation by lattice translations.

    Those conjugations shift the translation part by (I - B)Lambda, a
    rank-2 sublattice of the axis-perpendicular plane; the axis component
    is invariant.  Returns (orderable key, canonical witness).
    """
    fam = _families(P)[g.rot]
    axis_dot = dot(g.trans, fam.axis)
    axis_part = vec_scale(axis_dot / fam.axis_norm2, fam.axis)
    w1, w2 = fam.plane_basis
    y1, y2 = _plane_coords(w1, w2, vec_sub(g.trans, axis_part))
    (p, q), (_, r) = fam.conj_lattice
    k = math.floor(y1 / p)
    y1, y2 = y1 - k * p, y2 - k * q
    y2 = y2 - math.floor(y2 / r) * r
    trans = vec_add(axis_part, vec_add(vec_scale(y1, w1), vec_scale(y2, w2)))
    key = (tuple(c for row in g.rot for c in row), axis_dot, y1, y2)
    return key, _trusted(g.rot, trans)


def _unoriented_class(P: PlatycosmPresentation, g: Isometry):
    """Minimal canonical form over holonomy conjugation and inversion."""
    best = None
    for h in P.holonomy_reps:
        h_inv = inverse(h)
        for elem in (g, inverse(g)):
            key, witness = _translation_canonical(
                P, compose(compose(h, elem), h_inv)
            )
            if best is None or key < best[0]:
                best = (key, witness)
    return best


def imprimitivity(witness: Isometry, P: PlatycosmPresentation) -> int:
    """Largest k with witness = delta^k for some deck transformation delta.

    Candidate roots have rotational part a k-th root of the witness's
    within the holonomy group; their translation solves the affine power
    equation (I + B + ... + B^(k-1)) mu = trans - (...) rep_trans over the
    lattice, decided exactly by Smith reduction.
    """
    if witness.rot == IDENTITY:
        raise ValueError("imprimitivity is defined for twisted elements only")
    if not P.contains(witness):
        raise ValueError("witness is not an element of the deck group")
    fams = _families(P)
    fam = fams[witness.rot]
    length_dot = abs(dot(witness.trans, fam.axis))
    min_dot_over_len = min(
        f.min_positive_dot() / f.axis_len for f in fams.values()
    )
    length = length_dot / fam.axis_len
    k_max = math.floor(length / min_dot_over_len)
    basis = P.lattice.basis
    for k in range(k_max, 1, -1):
        for root in P.holonomy_reps[1:]:
            if _mat_pow(root.rot, k) != witness.rot:
                continue
            # columns of the power-sum matrix in lattice coordinates
            cols = [_power_sum_apply(root.rot, k, b) for b in basis]
            rows = [[cols[j][i] for j in range(3)] for i in range(3)]
            rhs = vec_sub(witness.trans, _power_sum_apply(root.rot, k, root.trans))
            if solve_rational_in_lattice(rows, rhs) is not None:
                return k
    return 1


def _mat_pow(B: Mat3, k: int) -> Mat3:
    out = IDENTITY
    for _ in range(k):
        out = mat_mul(B, out)
    return out


def _power_sum_apply(B: Mat3, k: int, v: Vec3) -> Vec3:
    """(I + B + ... + B^(k-1)) v."""
    total = vec(0, 0, 0)
    current = vec(*v)
    for _ in range(k):
        total = vec_add(total, current)
        current = mat_vec(B, current)
    return total


@lru_cache(maxsize=CACHE_SIZE)
def twisted_classes(
    P: PlatycosmPresentation, max_length: Fraction
) -> tuple[GeodesicClass, ...]:
    """All unoriented twisted conjugacy classes with length <= max_length,
    aggregated by (length, twist, imprimitivity), sorted by that signature."""
    max_length = Fraction(max_length)
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    fams = _families(P)
    classes: dict[tuple, Isometry] = {}
    for g in P.holonomy_reps[1:]:
        fam = fams[g.rot]
        bound = max_length * fam.axis_len
        n_lo = math.ceil((-bound - fam.alpha) / fam.step)
        n_hi = math.floor((bound - fam.alpha) / fam.step)
        w1, w2 = fam.plane_basis
        for n in range(n_lo, n_hi + 1):
            if fam.alpha + n * fam.step == 0:
                raise InvalidPresentationError("presentation has a fixed point")
            base = vec_add(g.trans, vec_scale(n, fam.step_vector))
            for i, j in fam.coset_reps:
                trans = vec_add(base, vec_add(vec_scale(i, w1), vec_scale(j, w2)))
                key, witness = _unoriented_class(P, _trusted(g.rot, trans))
                classes.setdefault(key, witness)
    grouped: dict[tuple, list] = {}
    for key in sorted(classes):
        witness = classes[key]
        fam = fams[witness.rot]
        length = abs(dot(witness.trans, fam.axis)) / fam.axis_len
        sig = (length, fam.twist_over_pi, imprimitivity(witness, P))
        entry = grouped.setdefault(sig, [0, witness])
        entry[0] += 1
    return tuple(
        GeodesicClass(length=sig[0], twist_over_pi=sig[1], imprimitivity=sig[2],
                      count=cnt, witness=wit)
        for sig, (cnt, wit) in sorted(grouped.items())
    )


def weight(cls: GeodesicClass) -> Fraction:
    """Aggregate spectral weight count * f / k with f = 1/sin^2(twist/2)."""
    return cls.count * twist_factor(cls.twist_over_pi) / cls.imprimitivity


@dataclass(frozen=True)
class BalanceEntry:
    """One kind of geodesic in a balance row: n, t, k, w columns."""

    count: int
    twist_turns: Fraction  # twist as fraction of a full turn
    imprimitivity: int
    weight: Fraction


@dataclass(frozen=True)
class BalanceRow:
    length: Fraction
    entries: tuple[BalanceEntry, ...]
    total: Fraction


@dataclass(frozen=True)
class BalancePair:
    length: Fraction
    left: BalanceRow
    right: BalanceRow
    balanced: bool


def _balance_row(classes, length: Fraction) -> BalanceRow:
    entries = tuple(
        BalanceEntry(
            count=c.count,
            twist_turns=c.twist_over_pi / 2,
            imprimitivity=c.imprimitivity,
            weight=weight(c),
        )
        for c in sorted(
            (c for c in classes if c.length == length),
            key=lambda c: (c.twist_over_pi, c.imprimitivity),
        )
    )
    return BalanceRow(length, entries, sum((e.weight for e in entries), Fraction(0)))


def balance_table(
    P1: PlatycosmPresentation, P2: PlatycosmPresentation, max_length
) -> tuple[BalancePair, ...]:
    """Side-by-side spectral weights per length, flagging any imbalance.

    Rows cover every half-integer length up to max_length plus any other
    length at which either space has a twisted class.
    """
    max_length = Fraction(max_length)
    left = twisted_classes(P1, max_length)
    right = twisted_classes(P2, max_length)
    lengths = {Fraction(i, 2) for i in range(1, math.floor(2 * max_length) + 1)}
    lengths.update(c.length for c in left)
    lengths.update(c.length for c in right)
    pairs = []
    for length in sorted(lengths):
        row_l = _balance_row(left, length)
        row_r = _balance_row(right, length)
        pairs.append(BalancePair(length, row_l, row_r, row_l.total == row_r.total))
    return tuple(pairs)


def classes_to_csv(classes) -> str:
    lines = ["length,twist_over_pi,imprimitivity,count,weight"]
    for c in classes:
        lines.append(
            ",".join(
                (
                    fraction_to_str(c.length),
                    fraction_to_str(c.twist_over_pi),
                    str(c.imprimitivity),
                    str(c.count),
                    fraction_to_str(weight(c)),
                )
            )
        )
    return "\n".join(lines) + "\n"


def balance_to_csv(pairs, left_name: str, right_name: str) -> str:
    """Two-space side-by-side table with columns l, space, n, t, k, w, w_l."""
    lines = ["l,space,n,t,k,w,w_l"]
    for pair in pairs:
        for name, row in ((left_name, pair.left), (right_name, pair.right)):
            prefix = fraction_to_str(pair.length)
            total = fraction_to_str(row.total)
            if row.entries:
                for e in row.entries:
                    lines.append(
                        f"{prefix},{name},{e.count},{fraction_to_str(e.twist_turns)},"
                        f"{e.imprimitivity},{fraction_to_str(e.weight)},{total}"
                    )
            else:
                lines.append(f"{prefix},{name},,,,,{total}")
    return "\n".join(lines) + "\n"
