"""Isometry algebra, presets, and presentation invariants."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import presentations_of, swap_xz

from platycosms.errors import InvalidPresentationError, UnknownPresetError
from platycosms.euclid import (
    HALF_TURN_SCREW_X,
    HALF_TURN_SCREW_Y,
    HALF_TURN_SCREW_Z,
    IDENTITY_ISOMETRY,
    PRESET_NAMES,
    Isometry,
    Lattice,
    PlatycosmPresentation,
    QUARTER_TURN_SCREW,
    betti_one,
    compose,
    fixed_sublattice_rank,
    inverse,
    isometry_power,
    presentation_from_json,
    presentation_to_json,
    preset,
    translation,
    translation_lattice,
    volume,
)
from platycosms.linalg import (
    IDENTITY, dot, mat, mat_mul, mat_sub, rank, vec, vec_add,
)

TAU = QUARTER_TURN_SCREW
TWO_TALL_LATTICE = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


def sample_points():
    return [vec(0, 0, 0), vec(1, 2, 3), vec(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7))]


# --- generator actions match the defining screw motions -----------------------


def test_quarter_turn_screw_action():
    # (x, y, z) -> (-y, x, z + 1/2)
    for p in sample_points():
        x, y, z = p
        assert TAU.apply(p) == (-y, x, z + Fraction(1, 2))


def test_half_turn_screw_actions():
    for p in sample_points():
        x, y, z = p
        assert HALF_TURN_SCREW_X.apply(p) == (x + Fraction(1, 2), -y, -z)
        assert HALF_TURN_SCREW_Y.apply(p) == (-x, y + Fraction(1, 2), 1 - z)
        assert HALF_TURN_SCREW_Z.apply(p) == (Fraction(1, 2) - x, Fraction(1, 2) - y, z + 1)


def test_screws_generate_each_other():
    # x-screw then y-screw equals the z-screw up to a lattice translation
    combo = compose(HALF_TURN_SCREW_X, HALF_TURN_SCREW_Y)
    assert combo.rot == HALF_TURN_SCREW_Z.rot
    diff = vec(*(a - b for a, b in zip(combo.trans, HALF_TURN_SCREW_Z.trans)))
    assert TWO_TALL_LATTICE.contains(diff)


# --- compose / inverse ---------------------------------------------------------


def test_compose_square_of_quarter_turn():
    # tau^2: (x, y, z) -> (-x, -y, z+1)
    sq = compose(TAU, TAU)
    for p in sample_points():
        x, y, z = p
        assert sq.apply(p) == (-x, -y, z + 1)


def test_compose_square_of_x_screw_is_unit_translation():
    sq = compose(HALF_TURN_SCREW_X, HALF_TURN_SCREW_X)
    assert sq.is_translation
    assert sq.trans == vec(1, 0, 0)


def test_compose_identity():
    assert compose(IDENTITY_ISOMETRY, HALF_TURN_SCREW_Y) == HALF_TURN_SCREW_Y


def test_inverse_examples():
    assert inverse(IDENTITY_ISOMETRY) == IDENTITY_ISOMETRY
    inv = inverse(TAU)
    for p in sample_points():
        x, y, z = p
        assert inv.apply(p) == (y, -x, z - Fraction(1, 2))
    v = vec(3, Fraction(-1, 2), 7)
    assert inverse(translation(v)) == translation(vec(*(-c for c in v)))


def test_compose_inverse_is_identity():
    for g in (TAU, HALF_TURN_SCREW_X, HALF_TURN_SCREW_Y, HALF_TURN_SCREW_Z):
        assert compose(g, inverse(g)) == IDENTITY_ISOMETRY
        assert compose(inverse(g), g) == IDENTITY_ISOMETRY


def _random_deck_element(rng, P):
    g = rng.choice(P.holonomy_reps)
    lam = P.lattice.from_coords([rng.randint(-3, 3) for _ in range(3)])
    return compose(translation(lam), g)


def test_compose_associative_on_random_triples():
    rng = random.Random(20240)
    for name in ("tetra", "didi"):
        P = preset(name)
        for _ in range(50):
            f, g, h = (_random_deck_element(rng, P) for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


PRODUCT_SPACES = [preset(name) for name in PRESET_NAMES] + [
    swap_xz(preset("tetra")), swap_xz(preset("didi"))
]


@pytest.mark.parametrize("P", PRODUCT_SPACES, ids=lambda P: P.name)
def test_products_equal_validated_isometries(P):
    """compose and inverse skip re-validation; every product of up to
    three reps and inverses must equal, and hash like, the validated
    Isometry built from the same parts."""
    gens = list(P.holonomy_reps) + [inverse(g) for g in P.holonomy_reps]
    for n in (1, 2, 3):
        for word in itertools.product(gens, repeat=n):
            g = word[0]
            for h in word[1:]:
                g = compose(g, h)
            checked = Isometry(g.rot, g.trans)
            assert g == checked and hash(g) == hash(checked)
            assert all(type(c) is Fraction for row in g.rot for c in row)
            assert all(type(c) is Fraction for c in g.trans)
            with pytest.raises(InvalidPresentationError):
                Isometry(tuple(tuple(2 * c for c in row) for row in g.rot), g.trans)


# --- presets -------------------------------------------------------------------


def test_preset_two_tall():
    P = preset("two_tall")
    assert P.lattice.same_lattice(TWO_TALL_LATTICE)
    assert P.holonomy_reps == (IDENTITY_ISOMETRY,)


def test_preset_tetra_contains_quarter_turn():
    P = preset("tetra")
    assert len(P.holonomy_reps) == 4
    assert TAU in P.holonomy_reps
    # rep translations are reduced into the fundamental cell
    for g in P.holonomy_reps:
        coords = P.lattice.coords(g.trans)
        assert all(0 <= c < 1 for c in coords)


def test_preset_didi_contains_x_screw():
    P = preset("didi")
    assert len(P.holonomy_reps) == 4
    assert HALF_TURN_SCREW_X in P.holonomy_reps


def test_preset_unknown_name():
    with pytest.raises(UnknownPresetError, match="tetra"):
        preset("nosuch")


def test_rep_order_gives_lattice_translation():
    # tau^4 = (0,0,2); rho_z^2 = (0,0,2)
    t4 = isometry_power(TAU, 4)
    assert t4.is_translation and t4.trans == vec(0, 0, 2)
    z2 = isometry_power(HALF_TURN_SCREW_Z, 2)
    assert z2.is_translation and z2.trans == vec(0, 0, 2)
    for name in ("tetra", "didi"):
        P = preset(name)
        lat = translation_lattice(P)
        for g in P.holonomy_reps:
            order = 1
            power = g.rot
            while power != IDENTITY:
                power = tuple(
                    tuple(dot(row, col) for col in zip(*g.rot)) for row in power
                )
                order += 1
            pw = isometry_power(g, order)
            assert pw.is_translation
            assert lat.contains(pw.trans)


# --- translation lattice --------------------------------------------------------


def _brute_force_pure_translations(P, box=2):
    """Oracle: translation parts of all products rep_i.(lattice shift).rep_j
    with identity rotational part, over a coordinate box."""
    found = []
    for g in P.holonomy_reps:
        for h in P.holonomy_reps:
            if mat_mul(g.rot, h.rot) != IDENTITY:
                continue  # no shift between them gives a translation
            for n0 in range(-box, box + 1):
                for n1 in range(-box, box + 1):
                    for n2 in range(-box, box + 1):
                        lam = P.lattice.from_coords((n0, n1, n2))
                        elem = compose(g, compose(translation(lam), h))
                        if elem.is_translation:
                            found.append(elem.trans)
    return found


@pytest.mark.parametrize("name", ["two_tall", "tetra", "didi"])
def test_translation_lattice_is_two_tall(name):
    same_space, conjugate = presentations_of(preset(name))
    for P in same_space + [conjugate]:
        lat = translation_lattice(P)
        assert lat.same_lattice(P.lattice)
        if P is not conjugate:
            assert lat.same_lattice(TWO_TALL_LATTICE)
        # oracle: no product of reps and shifts yields a translation outside it
        for trans in _brute_force_pure_translations(P):
            assert lat.contains(trans)


def test_repeated_rotational_parts_rejected():
    # listing the deck group over a sublattice forces repeated rotational
    # parts among the cosets, which the presentation type refuses
    sub = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 4]]))
    tau2 = compose(TAU, TAU)
    tau3 = compose(TAU, tau2)
    reps = (
        IDENTITY_ISOMETRY,
        TAU,
        tau2,
        tau3,
        translation(vec(0, 0, 2)),
        Isometry(TAU.rot, vec_add(TAU.trans, vec(0, 0, 2))),
        Isometry(tau2.rot, vec_add(tau2.trans, vec(0, 0, 2))),
        Isometry(tau3.rot, vec_add(tau3.trans, vec(0, 0, 2))),
    )
    with pytest.raises(InvalidPresentationError, match="distinct"):
        PlatycosmPresentation("tetra_sub", sub, reps)


# --- volume and Betti number -----------------------------------------------------


def test_volume_examples():
    assert volume(preset("tetra")) == Fraction(1, 2)
    assert volume(preset("didi")) == Fraction(1, 2)
    assert volume(preset("two_tall")) == 2
    assert volume(preset("cubical_torocosm")) == 1


def test_betti_one_examples():
    assert betti_one(preset("tetra")) == 1
    assert betti_one(preset("didi")) == 0
    assert betti_one(preset("cubical_torocosm")) == 3
    assert betti_one(preset("two_tall")) == 3


@pytest.mark.parametrize("name", ["tetra", "didi", "two_tall", "cubical_torocosm"])
def test_betti_one_equals_fixed_sublattice_rank(name):
    P = preset(name)
    assert betti_one(P) == fixed_sublattice_rank(P)


# --- fixed-point freeness ----------------------------------------------------------


@pytest.mark.parametrize("name", ["tetra", "didi"])
def test_fixed_point_free_sweep(name):
    """For every non-identity rep (B, b) and every lattice shift with
    |b + lam| <= 10, the equation (I - B) x = b + lam has no solution."""
    P = preset(name)
    for g in P.holonomy_reps[1:]:
        a_rows = [list(row) for row in mat_sub(IDENTITY, g.rot)]
        base_rank = rank(a_rows)
        checked = 0
        for n0 in range(-11, 12):
            for n1 in range(-11, 12):
                for n2 in range(-6, 7):
                    lam = P.lattice.from_coords((n0, n1, n2))
                    rhs = vec_add(g.trans, lam)
                    if dot(rhs, rhs) > 100:
                        continue
                    checked += 1
                    augmented = [row + [rhs[i]] for i, row in enumerate(a_rows)]
                    # no solution iff the augmented matrix has larger rank
                    assert rank(augmented) == base_rank + 1
        assert checked > 100


def test_presentation_with_fixed_point_rejected():
    # a pure half-turn (no screw) fixes the origin
    bad = Isometry(HALF_TURN_SCREW_Z.rot, vec(0, 0, 0))
    with pytest.raises(InvalidPresentationError, match="fixes a point"):
        PlatycosmPresentation("bad", TWO_TALL_LATTICE, (IDENTITY_ISOMETRY, bad))


def test_presentation_requires_rotation_closure():
    with pytest.raises(InvalidPresentationError, match="closed under product"):
        PlatycosmPresentation(
            "bad", TWO_TALL_LATTICE, (IDENTITY_ISOMETRY, TAU)
        )


def test_presentation_requires_identity_first():
    with pytest.raises(InvalidPresentationError, match="identity"):
        PlatycosmPresentation("bad", TWO_TALL_LATTICE, (TAU,))


def test_presentation_requires_lattice_preserved():
    skew = Lattice(mat([[1, 0, 0], [0, 1, 0], [Fraction(1, 3), 0, 2]]))
    with pytest.raises(InvalidPresentationError):
        PlatycosmPresentation(
            "bad", skew, tuple(preset("tetra").holonomy_reps)
        )


def test_isometry_requires_orthogonal_rotation():
    with pytest.raises(InvalidPresentationError, match="orthogonal"):
        Isometry(mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), vec(0, 0, 0))


# --- serialization ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["tetra", "didi", "two_tall", "cubical_torocosm"])
def test_json_round_trip(name):
    P = preset(name)
    doc = presentation_to_json(P)
    Q = presentation_from_json(doc)
    assert Q == P


def test_json_rationals_are_strings():
    doc = presentation_to_json(preset("tetra"))
    assert doc["reps"][1]["trans"] == ["0", "0", "1/2"]
    assert doc["lattice"][2] == ["0", "0", "2"]


def test_malformed_space_document():
    with pytest.raises(InvalidPresentationError):
        presentation_from_json({"name": "x", "lattice": [[1, 0], [0, 1]], "reps": []})
