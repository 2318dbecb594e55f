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
family to another by an integer affine map of Z^3.  Reps of one coset of
the family's rotation group give one map up to the reduction, so a family
of rotation order o has 2m/o distinct maps; they form the class-action
table, derived once per presentation from the holonomy rotations in
lattice coordinates and the rep translations' lattice coordinates over
one common denominator.  A class is an orbit of the table on the
reduced candidates; its key is the least point of the orbit in
(family, n, y1, y2) order, and only that point becomes an `Isometry`
witness.  Imprimitivity is decided in the same coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
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

# twist angle (over pi) from the rotation trace tr = 1 + 2 cos(theta)
_TWIST_FROM_TRACE = {
    -1: Fraction(1),
    0: Fraction(2, 3),
    1: Fraction(1, 2),
    2: Fraction(1, 3),
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
    unit: tuple[int, int]  # (numerator, denominator)
    axis_form: IntVec  # integer multiple of x -> <x, axis> on lattice coordinates
    basis: IntMat  # columns: step vector, w1, w2 in lattice coordinates
    basis_inv: IntMat
    conj_lattice: tuple[tuple[int, int], ...]  # HNF rows of (I-B)Lambda in (y1, y2)

    @property
    def index(self) -> int:
        """Number of translation-conjugacy classes for each n."""
        (p, _), (_, r) = self.conj_lattice
        return p * r

    @cached_property
    def spacing(self) -> Fraction:
        """g * unit, the length between consecutive n; only the heat
        trace's tail bound reads it."""
        return Fraction(self.screw[1] * self.unit[0], self.unit[1])


def _conj_lattice(diff: IntMat) -> tuple[tuple[int, int], ...]:
    """HNF rows [[p, q], [0, r]] of the lattice spanned by the vectors
    (diff[1][k], diff[2][k]): p is the gcd of their first entries, p*r
    the gcd of their 2x2 minors, and q, mod r, the second entry of the
    spanning combination sum u_k (x_k, y_k) whose Bezout coefficients u_k
    give sum u_k x_k = p."""
    xs, ys = diff[1], diff[2]
    det = math.gcd(xs[0] * ys[1] - xs[1] * ys[0], xs[0] * ys[2] - xs[2] * ys[0],
                   xs[1] * ys[2] - xs[2] * ys[1])
    if not det:
        raise UnsupportedGeometryError("conjugation sublattice is not rank 2")
    # fold the extended Euclidean algorithm over the first entries, carrying
    # s = sum u_k y_k along with p = sum u_k x_k
    p = s = 0
    for x, y in zip(xs, ys):
        u, v, a, a1, b, b1 = p, x, 1, 0, 0, 1
        while v:
            t = u // v
            u, v, a, a1, b, b1 = v, u - t * v, a1, a - t * a1, b1, b - t * b1
        if u < 0:
            u, a, b = -u, -a, -b
        p, s = u, a * s + b * y
    r = det // p
    return (p, s % r), (0, r)


def _build_family(form: IntegerForm, i: int, steps: dict) -> _TwistFamily:
    """Family i > 0.  `steps` maps each integer axis form met so far to its
    step basis, so families that share an axis, as the powers of one
    rotation do, reduce it once."""
    A = form.rots[i]
    fixed = form.fixed[i - 1]
    if len(fixed) != 1:
        raise UnsupportedGeometryError(
            "twisted holonomy must be a rotation with a one-dimensional axis"
        )
    # the fixed functional f pairs lattice coordinates with the dual vector
    # basis^-1 f, which the rotation fixes: the primitive integer vector along
    # adj(basis) f = f . adj(basis^T), first nonzero entry positive, is the axis
    x, y, z = mat_vec(transpose(form.adj), fixed[0])
    content = math.gcd(x, y, z)
    if (x or y or z) < 0:
        content = -content
    axis = (x // content, y // content, z // content)
    norm = dot(axis, axis)
    axis_len = math.isqrt(norm)
    if axis_len * axis_len != norm:
        raise UnsupportedGeometryError("screw axis has irrational length scale")
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = A
    trace = a0 + a4 + a8
    twist = _TWIST_FROM_TRACE.get(trace)
    if twist is None:
        raise UnsupportedGeometryError("twist is not a rational multiple of pi")

    # <b, axis> for the basis vectors b is raw / scale = h * ints / scale, so
    # the translation with scaled lattice coordinates X has axis component
    # ints . X * h / (den * scale): a length is |ints . X| * unit
    x, y, z = mat_vec(form.basis, axis)
    h = math.gcd(form.scale, x, y, z)
    ints = (x // h, y // h, z // h)
    step = steps.get(ints)
    if step is None:
        # the unimodular U with U . ints^T = (gcd, 0, 0)^T: its first row is
        # a step vector that the form maps to the gcd, the other two span
        # the form's kernel, and as columns the three are a basis of Z^3
        ((gcd_all,), _, _), U, _ = hermite([ints])
        basis = tuple(zip(*U))
        det = det3(basis)
        step = steps[ints] = (gcd_all, basis,
                              tuple(tuple(det * c for c in row) for row in adj3(basis)))
    gcd_all, basis, basis_inv = step

    # (I - B)Lambda: columns of basis_inv . (I - A), all with n = 0
    conj = _conj_lattice(mat_mul(basis_inv, (
        (1 - a0, -a1, -a2), (-a3, 1 - a4, -a5), (-a6, -a7, 1 - a8)
    )))
    # the rep translation has ints . X = a, the step vector den * gcd_all = g
    a, g = dot(ints, form.trans[i]), form.den * gcd_all
    if a % g == 0:
        raise InvalidPresentationError("family contains a zero-length screw")
    return _TwistFamily(
        twist_over_pi=twist,
        screw=(a, g),
        unit=(h, form.den * form.scale * axis_len),
        axis_form=ints,
        basis=basis,
        basis_inv=basis_inv,
        conj_lattice=conj,
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
    # per family of rotation order o, 2m/o entries (image family, T
    # row-major, e), 13 ints: the conjugate by one rep of the point z, or
    # of its inverse, is T z + e, one rep per coset of the family's <A>
    actions: tuple[tuple[tuple, ...], ...]
    # lengths over one common denominator: the point of family f with axis
    # value u has length |u| * units[f] / length_den
    length_den: int
    units: tuple[int, ...]
    shortest: Optional[int]  # least length over all families, over length_den
    form: IntegerForm

    @cached_property
    def roots(self) -> tuple[tuple[tuple, tuple], ...]:
        """Per family r of rotation order o: the family index of A_r^j (None
        for the identity) for j < o, and the power sums I + ... + A_r^(j-1),
        j <= o.  Only an imprimitivity solve reads them, so they are built
        on its first call, in the table's own cache entry."""
        return tuple(_powers(self.form, r) for r in range(1, len(self.form.rots)))


def _actions(fams, form: IntegerForm) -> tuple[tuple[tuple, ...], ...]:
    """The class-action table.  With X = c + x the lattice coordinates of
    a translation (c those of the rep, x integral), inverting sends
    (A, X) to (A^-1, -A^-1 X) and conjugating by the rep (A_h, c_h) sends
    (A, X) to (A_h A A_h^-1, A_h X + c_h - A_h A A_h^-1 c_h); both are
    affine in x, and the offset from the image rep is integral.

    Conjugating a point of a family by the family's own rep is a
    conjugation by a lattice translation, which the reduction modulo
    (I - B)Lambda forgets: the reps of one coset h<A> give one reduced
    map, so the table keeps the least rep of each coset, for the point
    and for its inverse.  The inverse family has the same <A>, and the
    conjugate of an inverse composes the inverse family's conjugation
    entry with the family's inversion map, two affine maps of Z^3."""
    rots, trans, den = form.rots, form.trans, form.den
    product, inverse = form.product, form.inverse

    def affine(rj, linear, c_h, ri):
        # (image family, T, e) of the map sending the point x of family rj
        # to the point of family ri whose lattice coordinates are
        # linear X + c_h - A_ri c_h
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
        return (ri - 1, mat_mul(image.basis_inv, mat_mul(linear, fams[rj - 1].basis)),
                mat_vec(image.basis_inv, [s // den for s in shift]))

    conjugates = []
    for rj in range(1, len(rots)):
        # rep 0, the identity, heads the first coset and conjugates by the
        # identity map
        row = [(rj - 1, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))]
        covered = set()
        for h in range(len(rots)):
            if h in covered:
                continue
            c = h
            while c not in covered:
                covered.add(c)
                c = product[c][rj]
            if h:
                row.append(affine(rj, rots[h], trans[h], product[product[h][rj]][inverse[h]]))
        conjugates.append(row)
    table = []
    for rj, row in enumerate(conjugates, 1):
        src = inverse[rj]
        _, T_inv, e_inv = affine(rj, tuple(tuple(-c for c in r) for r in rots[src]),
                                 trans[0], src)
        entries = []
        for (i, T, e), (k, T_c, e_c) in zip(row, conjugates[src - 1]):
            entries.append((i, *T[0], *T[1], *T[2], *e))
            T = mat_mul(T_c, T_inv)
            e = [a + b for a, b in zip(mat_vec(T_c, e_inv), e_c)]
            entries.append((k, *T[0], *T[1], *T[2], *e))
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
        sums.append(tuple(tuple(map(add, ra, rb)) for ra, rb in zip(sums[-1], form.rots[p])))
        p = form.product[p][r]
        if p == 0:
            return tuple(families), tuple(sums)


@lru_cache(maxsize=CACHE_SIZE)
def _class_table(P: PlatycosmPresentation) -> _ClassTable:
    form = P.form
    steps: dict = {}
    fams = tuple(_build_family(form, i, steps) for i in range(1, len(form.rots)))
    length_den = math.lcm(*(f.unit[1] for f in fams))
    units = tuple(f.unit[0] * (length_den // f.unit[1]) for f in fams)
    return _ClassTable(
        fams=fams,
        den=form.den,
        trans_coords=form.trans[1:],
        cartesian=transpose(form.basis),
        cartesian_den=form.den * form.scale,
        actions=_actions(fams, form),
        length_den=length_den,
        units=units,
        # |a + n*g| is least at a mod g or at -a mod g
        shortest=min((min(a % g, -a % g) * u for (a, g), u in
                      zip((f.screw for f in fams), units)), default=None),
        form=form,
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
    k_max = abs(axis_value) * table.units[w] // table.shortest
    return _imprimitivity(table, w, X, axis_value, k_max)


# --- class enumeration -----------------------------------------------------------


def _coords(table: _ClassTable, f: int, z) -> list[int]:
    """den times the lattice coordinates of the translation of the point z
    of family f."""
    return [c + table.den * x
            for c, x in zip(table.trans_coords[f], mat_vec(table.fams[f].basis, z))]


def _witness(P: PlatycosmPresentation, table: _ClassTable, f: int, z) -> Isometry:
    """The deck element at the point z of family f."""
    X = _coords(table, f, z)
    trans = tuple(Fraction(v, table.cartesian_den) for v in mat_vec(table.cartesian, X))
    return _trusted(P.holonomy_reps[f + 1].rot, trans)


def _census(table: _ClassTable, max_length: Fraction) -> list:
    """(family, point, length, imprimitivity) for every unoriented twisted
    class with length <= max_length, in key order: the point (n, y1, y2)
    is the least of its class, and the length is over table.length_den.
    The n-ranges, the lengths and the bound on the imprimitivity are
    integer floor divisions."""
    if not table.fams:
        return []
    # |a + n*g| * units[f] / length_den <= max_length reads |a + n*g| <= reach
    # for n in [lo, hi], counted on the bounds: a range this long may not
    # have a len()
    top, bottom = max_length.numerator * table.length_den, max_length.denominator
    bounds = []
    for fam, unit in zip(table.fams, table.units):
        a, g = fam.screw
        reach = top // (bottom * unit)
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

    # a k-th power is at least k times the shortest length, so a class
    # shorter than twice it is primitive, and only the others are solved
    # for roots
    census = []
    for f, *z in keys:
        a, g = table.fams[f].screw
        axis_value = a + z[0] * g
        length = abs(axis_value) * table.units[f]
        k_max = length // table.shortest
        k = 1 if k_max < 2 else _imprimitivity(table, f, _coords(table, f, z), axis_value, k_max)
        census.append((f, z, length, k))
    return census


@lru_cache(maxsize=CACHE_SIZE)
def twisted_classes(
    P: PlatycosmPresentation, max_length: Fraction
) -> tuple[GeodesicClass, ...]:
    """All unoriented twisted conjugacy classes with length <= max_length,
    aggregated by (length, twist, imprimitivity), sorted by that signature.
    Each aggregate's witness is its first class in key order, and only
    that class becomes an `Isometry`.

    Raises CutoffBudgetError when the enumeration would visit more than
    CLASS_CANDIDATE_BUDGET candidates."""
    max_length = Fraction(max_length)
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    table = _class_table(P)
    grouped: dict[tuple, list] = {}
    for f, z, length, k in _census(table, max_length):
        key = (length, table.fams[f].twist_over_pi, k)
        entry = grouped.get(key)
        if entry is None:
            grouped[key] = [1, f, z]
        else:
            entry[0] += 1
    return tuple(
        GeodesicClass(length=Fraction(length, table.length_den),
                      twist_over_pi=table.fams[f].twist_over_pi, imprimitivity=k,
                      count=count, witness=_witness(P, table, f, z))
        for (length, _, k), (count, f, z) in sorted(grouped.items())
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
