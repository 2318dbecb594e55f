"""Element-by-element oracle for the twisted conjugacy classes.

It canonicalizes one deck element at a time with `Isometry` arithmetic in
Cartesian rational coordinates, and shares nothing with the family
coordinates or the class-action table of `platycosms.geodesics`:

  * modulo conjugation by lattice translations, an element (B, t) keeps
    the axis component of t, while the perpendicular part moves by the
    rank-2 lattice M = (I - B)Lambda; its coordinates on the Hermite basis
    of M are reduced into [0, 1);
  * the class key is the least such form over conjugation by every
    holonomy rep, of the element and of its inverse;
  * imprimitivity solves the power equation of every candidate root in
    `Fraction`, computing each rotation power and power sum anew for every k.
"""

import math
from fractions import Fraction
from math import gcd, isqrt

from conftest import mat_sub
from platycosms.euclid import Isometry, Lattice, compose, inverse
from platycosms.linalg import (
    IDENTITY,
    dot,
    form_points,
    hnf_rows,
    mat_mul,
    mat_vec,
    nullspace,
    reduced_gram,
    solve_rational_in_lattice,
    vec,
    vec_add,
    vec_scale,
    vec_sub,
)


def fraction_gcd(values):
    """gcd of rationals: the positive generator of the group they generate."""
    num = 0
    den = 1
    for v in values:
        v = Fraction(v)
        num = gcd(num * v.denominator, v.numerator * den)
        den = den * v.denominator
    return Fraction(num, den)


def fraction_sqrt(f):
    """Exact square root of a nonnegative rational, or None if irrational."""
    f = Fraction(f)
    if f < 0:
        raise ValueError("negative radicand")
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def primitive_integer_vector(v):
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    den = math.lcm(*(Fraction(c).denominator for c in v))
    ints = [int(Fraction(c) * den) for c in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [c // g for c in ints]
    if next(c for c in ints if c != 0) < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _axis(rot):
    return vec(*primitive_integer_vector(nullspace(mat_sub(IDENTITY, rot))[0]))


def _axis_len(rot):
    axis = _axis(rot)
    out = fraction_sqrt(dot(axis, axis))
    assert out is not None
    return out


def _planes(P):
    """{rot: (axis, Hermite basis of (I - rot)Lambda)} for the twisted reps."""
    out = {}
    for g in P.holonomy_reps[1:]:
        gens = [mat_vec(mat_sub(IDENTITY, g.rot), b) for b in P.lattice.basis]
        den = math.lcm(*(c.denominator for v in gens for c in v))
        rows = hnf_rows([[int(c * den) for c in v] for v in gens])
        assert len(rows) == 2
        out[g.rot] = (_axis(g.rot), [vec(*(Fraction(c, den) for c in r)) for r in rows])
    return out


def _plane_coords(m1, m2, v):
    """Coordinates of v on m1, m2 (v must lie in their span)."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = m1[i] * m2[j] - m1[j] * m2[i]
        if det != 0:
            u1 = (v[i] * m2[j] - v[j] * m2[i]) / det
            u2 = (m1[i] * v[j] - m1[j] * v[i]) / det
            k = 3 - i - j
            assert m1[k] * u1 + m2[k] * u2 == v[k]
            return u1, u2
    raise AssertionError("degenerate plane basis")


def translation_canonical(planes, rot, trans):
    """(key, canonical translation) of the element (rot, trans) modulo
    conjugation by lattice translations; `planes` is `_planes(P)`."""
    axis, (m1, m2) = planes[rot]
    axis_dot = dot(trans, axis)
    axis_part = vec_scale(axis_dot / dot(axis, axis), axis)
    u1, u2 = _plane_coords(m1, m2, vec_sub(trans, axis_part))
    u1, u2 = u1 - math.floor(u1), u2 - math.floor(u2)
    key = (tuple(c for row in rot for c in row), axis_dot, u1, u2)
    return key, vec_add(axis_part, vec_add(vec_scale(u1, m1), vec_scale(u2, m2)))


def _orbit(P, planes, g):
    """Translation-canonical (key, rot, trans) of every conjugate of g and
    of its inverse by a holonomy rep."""
    out = []
    for h in P.holonomy_reps:
        h_inv = inverse(h)
        for elem in (g, inverse(g)):
            conj = compose(compose(h, elem), h_inv)
            out.append((*translation_canonical(planes, conj.rot, conj.trans), conj.rot))
    return out


def unoriented_class(P, g):
    """Least translation-canonical form over holonomy conjugation and
    inversion: (key, witness)."""
    key, trans, rot = min(_orbit(P, _planes(P), g), key=lambda image: image[0])
    return key, Isometry(rot, trans)


def length(g):
    return abs(dot(g.trans, _axis(g.rot))) / _axis_len(g.rot)


def _shortest(P):
    """Least length of a twisted deck element."""
    out = None
    for g in P.holonomy_reps[1:]:
        axis = _axis(g.rot)
        step = fraction_gcd([dot(b, axis) for b in P.lattice.basis])
        alpha = dot(g.trans, axis)
        r = alpha - step * math.floor(alpha / step)
        best = min(r, step - r) / _axis_len(g.rot)
        out = best if out is None else min(out, best)
    return out


def _mat_pow(B, k):
    out = IDENTITY
    for _ in range(k):
        out = mat_mul(B, out)
    return out


def _power_sum_apply(B, k, v):
    """(I + B + ... + B^(k-1)) v."""
    total = vec(0, 0, 0)
    current = vec(*v)
    for _ in range(k):
        total = vec_add(total, current)
        current = mat_vec(B, current)
    return total


def imprimitivity(witness, P):
    """Largest k with witness = delta^k for a deck transformation delta."""
    k_max = math.floor(length(witness) / _shortest(P))
    basis = P.lattice.basis
    for k in range(k_max, 1, -1):
        for root in P.holonomy_reps[1:]:
            if _mat_pow(root.rot, k) != witness.rot:
                continue
            cols = [_power_sum_apply(root.rot, k, b) for b in basis]
            rows = [[cols[j][i] for j in range(3)] for i in range(3)]
            rhs = vec_sub(witness.trans, _power_sum_apply(root.rot, k, root.trans))
            if solve_rational_in_lattice(rows, rhs) is not None:
                return k
    return 1


def census(P, max_length):
    """{class key: ((length, twist_over_pi, imprimitivity), witness)} for
    every unoriented twisted class up to max_length.

    The perpendicular parts of a translation class fill a coset of M, and
    every point of the plane lies within rho = (|m1| + |m2|)/2 of M, so
    every class has a member t + lam with |t + lam| at most
    R = sqrt(max_length^2 + rho^2).  With t first reduced modulo the
    lattice, |lam| <= R + |t|."""
    basis, gram, den = reduced_gram(P.lattice.basis)
    cell = Lattice(basis)
    planes = _planes(P)
    translation_classes = {}
    for g in P.holonomy_reps[1:]:
        axis, plane = planes[g.rot]
        bound = max_length * _axis_len(g.rot)
        rho = sum(math.sqrt(float(dot(m, m))) for m in plane) / 2
        t = cell.reduce(g.trans)
        reach = math.hypot(float(max_length), rho) + math.sqrt(float(dot(t, t)))
        for y, _ in form_points(gram, 0, math.floor(reach * reach * den) + 1):
            trans = vec_add(t, vec(*(sum(c * b[i] for c, b in zip(y, basis)) for i in range(3))))
            if abs(dot(trans, axis)) > bound:
                continue
            key, _ = translation_canonical(planes, g.rot, trans)
            translation_classes.setdefault(key, (g, trans))
    out = {}
    covered = set()
    for key, (g, trans) in translation_classes.items():
        if key in covered:
            continue
        orbit = _orbit(P, planes, Isometry(g.rot, trans))
        covered.update(image[0] for image in orbit)
        key, trans, rot = min(orbit, key=lambda image: image[0])
        rep = Isometry(rot, trans)
        out[key] = ((length(rep), _twist_over_pi(rot), imprimitivity(rep, P)), rep)
    return out


def _twist_over_pi(rot):
    cos = (rot[0][0] + rot[1][1] + rot[2][2] - 1) / 2
    return {Fraction(-1): Fraction(1), Fraction(0): Fraction(1, 2)}[cos]
