"""Shared test fixtures."""

from fractions import Fraction

from platycosms.euclid import Isometry, Lattice, PlatycosmPresentation
from platycosms.linalg import mat, mat_mul, mat_vec, vec, vec_add, vec_sub


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


def swap_xz(P: PlatycosmPresentation) -> PlatycosmPresentation:
    """The same space conjugated by the x <-> z swap: for Tetra and Didi
    the long axis becomes x and the lattice 2Z x Z x Z, so the dual
    lattice leaves the Z x Z x (1/2)Z grid."""
    lat = Lattice(tuple(mat_vec(_SWAP_XZ, b) for b in P.lattice.basis))
    reps = tuple(
        Isometry(mat_mul(mat_mul(_SWAP_XZ, g.rot), _SWAP_XZ), mat_vec(_SWAP_XZ, g.trans))
        for g in P.holonomy_reps
    )
    return PlatycosmPresentation(P.name + "_x_long", lat, reps)


def make_dicosm() -> PlatycosmPresentation:
    """Z x Z x 2Z divided by one half-turn screw about z."""
    screw = Isometry(mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), vec(0, 0, 1))
    lat = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    return PlatycosmPresentation("dicosm", lat, (Isometry(_IDENTITY, vec(0, 0, 0)), screw))


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
