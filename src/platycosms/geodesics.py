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

Conjugacy is decided exactly, on Python ints.  Each twisted holonomy rep
heads a family, with the screw axis of the rotation's one kernel (kept
by the integer form), and the translation lattice Lambda gets a basis
adapted to it: a step vector whose axis component generates
<Lambda, axis>, and a basis w1, w2 of Lambda in the axis-perpendicular
plane.  In these family coordinates a deck element of the family is a
point (n, y1, y2) of Z^3, with translation rep_trans + n*step_vector +
y1*w1 + y2*w2 and length |a + n*g| times the family's rational unit, a
and g being integer axis values.  Conjugation by a lattice translation
moves (y1, y2) by the rank-2 sublattice (I - B)Lambda, so a class under
translation conjugacy is n together with (y1, y2) reduced modulo the
Hermite normal form of that sublattice.

Conjugation by a holonomy rep, with or without inversion, sends one
family to another by an integer affine map of Z^3.  The 2m maps of each
family form the class-action table, derived once per presentation from
the holonomy rotations in lattice coordinates and the rep translations'
lattice coordinates over one common denominator.  A class is an orbit of
the table on the reduced candidates; its key is the least point of the
orbit in (family, n, y1, y2) order, and only that point becomes an
`Isometry` witness.  Imprimitivity is decided in the same coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import (
    CutoffBudgetError, InvalidPresentationError, UnsupportedGeometryError, abridged,
)
from .euclid import (
    CACHE_SIZE, IntegerForm, IntMat, IntVec, Isometry, PlatycosmPresentation, _trusted,
)
from .linalg import (
    IDENTITY,
    adj3,
    det3,
    dot,
    fraction_to_str,
    hermite,
    hnf_rows,
    mat_mul,
    mat_vec,
    solve_integer,
    transpose,
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

# Work bound of one class enumeration: the number of candidates, i.e. the
# values of n in range times the coset index of (I - B)Lambda, summed over
# the families.  The geometric heat trace enumerates to at most its radius
# budget of 64, where Tetra needs 512 candidates and Didi 1,280.  At the
# budget an enumeration takes about 2 s and 45 MB (Didi to length 4150,
# Python 3.11, one core).
CLASS_CANDIDATE_BUDGET = 100_000

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


# --- twist families and the class-action table ------------------------------


@dataclass(frozen=True)
class _TwistFamily:
    """Exact screw data for one holonomy rotation, with the family
    coordinates: lattice coordinates x = basis . (n, y1, y2)."""

    twist_over_pi: Fraction
    # axis_form . X = a + n*g for the family point (n, y1, y2), X the scaled
    # lattice coordinates of its translation; its length is |a + n*g| * unit
    screw: tuple[int, int]
    unit: Fraction
    spacing: Fraction  # g * unit, the length between consecutive n
    axis_form: IntVec  # integer multiple of x -> <x, axis> on lattice coordinates
    basis: IntMat  # columns: step vector, w1, w2 in lattice coordinates
    basis_inv: IntMat
    conj_lattice: tuple[tuple[int, int], ...]  # HNF rows of (I-B)Lambda in (y1, y2)

    @property
    def index(self) -> int:
        """Number of translation-conjugacy classes for each n."""
        (p, _), (_, r) = self.conj_lattice
        return p * r


def _build_family(form: IntegerForm, i: int) -> _TwistFamily:
    A = form.rots[i]
    fixed = form.fixed[i - 1]
    if len(fixed) != 1:
        raise UnsupportedGeometryError(
            "twisted holonomy must be a rotation with a one-dimensional axis"
        )
    # the fixed functional f pairs lattice coordinates with the dual vector
    # basis^-1 f, which the rotation fixes: the primitive integer vector along
    # adj(basis) f, first nonzero entry positive, is the axis
    axis = mat_vec(adj3(form.basis), fixed[0])
    content = math.gcd(*axis) * (1 if next(c for c in axis if c) > 0 else -1)
    axis = tuple(c // content for c in axis)
    norm = dot(axis, axis)
    axis_len = math.isqrt(norm)
    if axis_len * axis_len != norm:
        raise UnsupportedGeometryError("screw axis has irrational length scale")
    twist = _TWIST_FROM_COS.get(Fraction(A[0][0] + A[1][1] + A[2][2] - 1, 2))
    if twist is None:
        raise UnsupportedGeometryError("twist is not a rational multiple of pi")

    # <b, axis> for the basis vectors b is raw / scale = h * ints / scale, so
    # the translation with scaled lattice coordinates X has axis component
    # ints . X * h / (den * scale): a length is |ints . X| * unit
    raw = mat_vec(form.basis, axis)
    h = math.gcd(form.scale, *raw)
    ints = tuple(c // h for c in raw)
    unit = Fraction(h, form.den * form.scale * axis_len)
    # the unimodular U with U . ints^T = (gcd, 0, 0)^T: its first row is a
    # step vector that the form maps to the gcd, the other two span the
    # form's kernel, and as columns the three are a basis of Z^3
    ((gcd_all,), _, _), U, _ = hermite([ints])
    basis = tuple(zip(*U))
    det = det3(basis)
    basis_inv = tuple(tuple(det * c for c in row) for row in adj3(basis))

    # (I - B)Lambda: columns of basis_inv . (I - A), all with n = 0
    diff = mat_mul(basis_inv, tuple(
        tuple(int(r == c) - A[r][c] for c in range(3)) for r in range(3)
    ))
    H = hnf_rows([[diff[1][k], diff[2][k]] for k in range(3)])
    if len(H) != 2 or H[1][0] != 0 or H[0][0] <= 0 or H[1][1] <= 0:
        raise UnsupportedGeometryError("conjugation sublattice is not rank 2")
    # the rep translation has ints . X = a, the step vector den * gcd_all = g
    a, g = dot(ints, form.trans[i]), form.den * gcd_all
    if a % g == 0:
        raise InvalidPresentationError("family contains a zero-length screw")
    return _TwistFamily(
        twist_over_pi=twist,
        screw=(a, g),
        unit=unit,
        spacing=g * unit,
        axis_form=ints,
        basis=basis,
        basis_inv=basis_inv,
        conj_lattice=tuple(tuple(r) for r in H),
    )


@dataclass(frozen=True, eq=False)
class _ClassTable:
    """What class enumeration and imprimitivity need about one
    presentation, derived once.  Family i is holonomy rep i + 1; lattice
    coordinates of rep translations are stored times `den`, their common
    denominator."""

    fams: tuple[_TwistFamily, ...]
    den: int
    trans_coords: tuple[IntVec, ...]  # den * lattice coordinates of the rep translation
    # Cartesian translation = cartesian . X / cartesian_den
    cartesian: IntMat
    cartesian_den: int
    # per family, 2m entries (image family, T row-major, e), 13 ints: the
    # conjugate by one rep of the point z, or of its inverse, is T z + e
    actions: tuple[tuple[tuple, ...], ...]
    # per family r of rotation order o: the family index of A_r^j (None for
    # the identity) for j < o, and the power sums I + ... + A_r^(j-1), j <= o
    roots: tuple[tuple[tuple, tuple], ...]
    shortest: Optional[Fraction]  # least length over all families


def _actions(fams, form: IntegerForm) -> tuple[tuple[tuple, ...], ...]:
    """The class-action table.  With X = c + x the lattice coordinates of
    a translation (c those of the rep, x integral), inverting sends
    (A, X) to (A^-1, -A^-1 X) and conjugating by the rep (A_h, c_h) sends
    (A, X) to (A_h A A_h^-1, A_h X + c_h - A_h A A_h^-1 c_h); both are
    affine in x, and the offset from the image rep is integral."""
    rots, trans, den = form.rots, form.trans, form.den
    product, inverse = form.product, form.inverse
    table = []
    for j, fam in enumerate(fams):
        rj = j + 1
        entries = []
        for h, (A_h, c_h) in enumerate(zip(rots, trans)):
            for invert in (False, True):
                if invert:
                    src = inverse[rj]
                    linear = tuple(tuple(-c for c in row) for row in mat_mul(A_h, rots[src]))
                else:
                    src = rj
                    linear = A_h
                ri = product[product[h][src]][inverse[h]]
                shift = [
                    a + b - c - d
                    for a, b, c, d in zip(
                        mat_vec(linear, trans[rj]), c_h, mat_vec(rots[ri], c_h), trans[ri]
                    )
                ]
                if any(s % den for s in shift):
                    raise InvalidPresentationError(
                        "coset representatives are not closed modulo the lattice"
                    )
                image = fams[ri - 1]
                T = mat_mul(image.basis_inv, mat_mul(linear, fam.basis))
                e = mat_vec(image.basis_inv, [s // den for s in shift])
                entries.append((ri - 1, *T[0], *T[1], *T[2], *e))
        table.append(tuple(entries))
    return tuple(table)


def _powers(form: IntegerForm, r: int) -> tuple[tuple, tuple]:
    """Powers of rotation r up to its order, as family indices, and the
    power sums, accumulated once: A^k and the k-th sum follow from k mod
    the order."""
    families, sums = [], [((0, 0, 0),) * 3]
    p = 0
    while True:
        families.append(p - 1 if p else None)
        sums.append(tuple(tuple(a + b for a, b in zip(ra, rb))
                          for ra, rb in zip(sums[-1], form.rots[p])))
        p = form.product[p][r]
        if p == 0:
            return tuple(families), tuple(sums)


@lru_cache(maxsize=CACHE_SIZE)
def _class_table(P: PlatycosmPresentation) -> _ClassTable:
    form = P.form
    fams = tuple(_build_family(form, i) for i in range(1, len(form.rots)))
    return _ClassTable(
        fams=fams,
        den=form.den,
        trans_coords=form.trans[1:],
        cartesian=transpose(form.basis),
        cartesian_den=form.den * form.scale,
        actions=_actions(fams, form),
        roots=tuple(_powers(form, r) for r in range(1, len(form.rots))),
        # |a + n*g| is least at a mod g or at -a mod g
        shortest=min((min(f.screw[0] % f.screw[1], -f.screw[0] % f.screw[1]) * f.unit
                      for f in fams), default=None),
    )


# --- imprimitivity ------------------------------------------------------------


def _divisors(u: int, k_max: int) -> list[int]:
    """Divisors k of u with 2 <= k <= k_max, largest first."""
    u = abs(u)
    small = [d for d in range(1, math.isqrt(u) + 1) if u % d == 0]
    found = {k for d in small for k in (d, u // d) if 2 <= k <= k_max}
    return sorted(found, reverse=True)


def _imprimitivity(table: _ClassTable, w: int, X, axis_value: int, k_max: int) -> int:
    """Imprimitivity of the element of family w whose translation has
    scaled lattice coordinates X and scaled axis value `axis_value`: the
    largest k <= k_max for which some root r with A_r^k = A_w makes the
    power equation S mu = X - S c_r, S = I + A_r + ... + A_r^(k-1),
    solvable in integers (`solve_integer`).  A root's axis value times k
    is the witness's, and roots of one axis share its step, so k divides
    the scaled axis value and a congruence sorts out the roots."""
    g = table.fams[w].screw[1]
    for k in _divisors(axis_value, k_max):
        for r, (powers, sums) in enumerate(table.roots):
            q, j = divmod(k, len(powers))
            if powers[j] != w or (axis_value // k - table.fams[r].screw[0]) % g:
                continue
            S = [[q * p + s for p, s in zip(row_p, row_s)]
                 for row_p, row_s in zip(sums[-1], sums[j])]
            shift = mat_vec(S, table.trans_coords[r])
            scaled = [[table.den * c for c in row] for row in S]
            if solve_integer(scaled, [x - s for x, s in zip(X, shift)]) is not None:
                return k
    return 1


def imprimitivity(witness: Isometry, P: PlatycosmPresentation) -> int:
    """Largest k with witness = delta^k for some deck transformation delta.

    Candidate roots have rotational part a k-th root of the witness's
    within the holonomy group; their translation solves the affine power
    equation (I + B + ... + B^(k-1)) mu = trans - (...) rep_trans over the
    lattice, decided exactly by an integer solve on the Hermite form.
    """
    if witness.rot == IDENTITY:
        raise ValueError("imprimitivity is defined for twisted elements only")
    if not P.contains(witness):
        raise ValueError("witness is not an element of the deck group")
    table = _class_table(P)
    w = next(i for i, rep in enumerate(P.holonomy_reps[1:]) if rep.rot == witness.rot)
    X = P.form.coords(witness.trans, table.den)
    axis_value = dot(table.fams[w].axis_form, X)
    k_max = math.floor(abs(axis_value) * table.fams[w].unit / table.shortest)
    return _imprimitivity(table, w, X, axis_value, k_max)


# --- class enumeration -----------------------------------------------------------


def _class_census(P: PlatycosmPresentation, max_length: Fraction) -> list:
    """((length, twist, imprimitivity), witness) for every unoriented
    twisted class with length <= max_length, in key order."""
    table = _class_table(P)
    if not table.fams:
        return []
    # |a + n*g| * unit <= max_length for n in [lo, hi], counted on the
    # bounds: a range this long may not have a len()
    bounds = []
    for fam in table.fams:
        a, g = fam.screw
        reach = max_length / fam.unit
        bounds.append((-((reach + a) // g), (reach - a) // g))
    candidates = sum(max(0, hi - lo + 1) * fam.index
                     for (lo, hi), fam in zip(bounds, table.fams))
    if candidates > CLASS_CANDIDATE_BUDGET:
        raise CutoffBudgetError(
            f"class enumeration to length {abridged(max_length)} needs "
            f"{abridged(candidates)} candidates, over the budget of {CLASS_CANDIDATE_BUDGET}"
        )

    # Every image of a candidate is a candidate (conjugation and inversion
    # keep the length), and candidates are visited in key order, so the
    # first unseen one is the least point of its orbit.
    hnf = [fam.conj_lattice for fam in table.fams]
    seen = set()
    keys = []
    for f, (fam, (lo, hi)) in enumerate(zip(table.fams, bounds)):
        (p, _), (_, q) = fam.conj_lattice
        acts = table.actions[f]
        for n in range(lo, hi + 1):
            for y1 in range(p):
                for y2 in range(q):
                    key = (f, n, y1, y2)
                    if key in seen:
                        continue
                    keys.append(key)
                    for i, t00, t01, t02, t10, t11, t12, t20, t21, t22, e0, e1, e2 in acts:
                        (pi, qi), (_, ri) = hnf[i]
                        c, z1 = divmod(t10 * n + t11 * y1 + t12 * y2 + e1, pi)
                        z2 = (t20 * n + t21 * y1 + t22 * y2 + e2 - c * qi) % ri
                        seen.add((i, t00 * n + t01 * y1 + t02 * y2 + e0, z1, z2))

    census = []
    for f, *z in keys:
        fam = table.fams[f]
        X = [c + table.den * x for c, x in zip(table.trans_coords[f], mat_vec(fam.basis, z))]
        a, g = fam.screw
        length = abs(a + z[0] * g) * fam.unit
        k = _imprimitivity(table, f, X, a + z[0] * g, math.floor(length / table.shortest))
        trans = tuple(Fraction(v, table.cartesian_den) for v in mat_vec(table.cartesian, X))
        census.append(((length, fam.twist_over_pi, k),
                       _trusted(P.holonomy_reps[f + 1].rot, trans)))
    return census


@lru_cache(maxsize=CACHE_SIZE)
def twisted_classes(
    P: PlatycosmPresentation, max_length: Fraction
) -> tuple[GeodesicClass, ...]:
    """All unoriented twisted conjugacy classes with length <= max_length,
    aggregated by (length, twist, imprimitivity), sorted by that signature.

    Raises CutoffBudgetError when the enumeration would visit more than
    CLASS_CANDIDATE_BUDGET candidates."""
    max_length = Fraction(max_length)
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    grouped: dict[tuple, list] = {}
    for sig, witness in _class_census(P, max_length):
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
    length at which either space has a twisted class; more than
    CLASS_CANDIDATE_BUDGET half-integer rows raise CutoffBudgetError.
    """
    max_length = Fraction(max_length)
    rows = math.floor(2 * max_length)
    if rows > CLASS_CANDIDATE_BUDGET:
        raise CutoffBudgetError(
            f"balance table to length {abridged(max_length)} needs "
            f"{abridged(rows)} rows, "
            f"over the budget of {CLASS_CANDIDATE_BUDGET}"
        )
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
