"""Shared test fixtures."""

from fractions import Fraction

from platycosms.euclid import Isometry, Lattice, PlatycosmPresentation
from platycosms.linalg import mat, mat_mul, mat_vec, vec


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
