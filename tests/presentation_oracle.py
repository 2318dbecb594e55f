"""Fraction validator of a platycosm presentation.

`PlatycosmPresentation` checks its invariants on integer lattice
coordinates.  This is the same list of checks in Cartesian `Fraction`
arithmetic, in the same order and with the same messages, sharing nothing
with the integer form: `Isometry`'s orthogonality and determinant, the
lattice's rank, then the identity first, distinct rotations, closure of
the rotations, the lattice preserved, coset closure, and fixed-point
freeness decided on the rotation's rational fixed space.
"""

from conftest import mat_sub
from platycosms.euclid import _trusted, compose
from platycosms.linalg import (
    IDENTITY,
    det3,
    dot,
    inv3,
    mat,
    mat_mul,
    mat_vec,
    nullspace,
    solve_rational_in_lattice,
    transpose,
    vec,
    vec_sub,
)


def _contains(basis, v) -> bool:
    return all(c.denominator == 1 for c in mat_vec(inv3(transpose(basis)), v))


def _fixed_point_message(basis, g):
    # (rot, trans + lam) has a fixed point iff the component of
    # trans + lam in the rot-fixed subspace vanishes; decide exactly by
    # solving <lam, f_i> = -<trans, f_i> for lam in the lattice.
    fix = nullspace(mat_sub(IDENTITY, g.rot))
    if not fix:
        return "a holonomy rep with no +1 eigenvalue always has a fixed point"
    rows = [[dot(b, f) for b in basis] for f in fix]
    rhs = [-dot(g.trans, f) for f in fix]
    if solve_rational_in_lattice(rows, rhs) is not None:
        return "holonomy rep composed with a lattice translation fixes a point"
    return None


def _validate(basis, reps):
    if not reps or not (reps[0].rot == IDENTITY and reps[0].trans == vec(0, 0, 0)):
        return "first holonomy rep must be the identity"
    rotations = [g.rot for g in reps]
    if len(set(rotations)) != len(rotations):
        return "holonomy rotational parts must be distinct"
    rotation_set = set(rotations)
    for a in rotations:
        for b in rotations:
            if mat_mul(a, b) not in rotation_set:
                return "holonomy rotational parts are not closed under product"
    for g in reps:
        for b in basis:
            if not _contains(basis, mat_vec(g.rot, b)):
                return "holonomy does not preserve the translation lattice"
    by_rotation = {g.rot: g for g in reps}
    for g in reps:
        for h in reps:
            gh = compose(g, h)
            target = by_rotation[gh.rot]
            if not _contains(basis, vec_sub(gh.trans, target.trans)):
                return "coset representatives are not closed modulo the lattice"
    for g in reps[1:]:
        message = _fixed_point_message(basis, g)
        if message is not None:
            return message
    return None


def verdict(lattice_rows, reps):
    """Message of the first invariant that the presentation given by
    lattice rows and (rot, trans) pairs breaks, or None if it is valid."""
    basis = mat(lattice_rows)
    if det3(basis) == 0:
        return "lattice basis is degenerate"
    checked = []
    for rot, trans in reps:
        rot = mat(rot)
        if mat_mul(transpose(rot), rot) != IDENTITY:
            return "rotational part is not orthogonal"
        if det3(rot) not in (1, -1):
            return "rotational part has determinant != +-1"
        checked.append(_trusted(rot, vec(*trans)))
    return _validate(basis, checked)
