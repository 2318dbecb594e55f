"""Isometry algebra, presets, and presentation invariants."""

import itertools
import random
import time
from fractions import Fraction
from math import lcm

import pytest

import presentation_oracle
from conftest import (
    isometry_power, make_amphicosm, make_dicosm, make_tricosm, mat_sub, presentations_of, rank,
    rotate_x, same_lattice, swap_xz,
)

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
    inverse,
    presentation_from_json,
    presentation_to_json,
    preset,
    translation,
    translation_lattice,
    volume,
)
from platycosms.linalg import (
    IDENTITY, dot, mat, mat_mul, mat_vec, vec, vec_add, vec_sub,
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
    assert same_lattice(P.lattice, TWO_TALL_LATTICE)
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
    with identity rotational part, over a coordinate box.  The product
    g.(lam).h has rotation R_g R_h and translation R_g (lam + t_h) + t_g;
    with every rotation, translation and basis entry scaled by their common
    denominator D to ints, D^2 times that translation is integral."""
    reps = P.holonomy_reps
    den = lcm(*(x.denominator for g in reps for row in (*g.rot, g.trans) for x in row),
              *(x.denominator for row in P.lattice.basis for x in row))

    def scaled(rows):
        return [[int(x * den) for x in row] for row in rows]

    rots = [scaled(g.rot) for g in reps]
    trans = scaled(g.trans for g in reps)
    b0, b1, b2 = scaled(P.lattice.basis)
    found = []
    for g, (rg, tg) in enumerate(zip(rots, trans)):
        for h, th in enumerate(trans):
            if mat_mul(rg, rots[h]) != tuple(tuple(den * den * (i == j) for j in range(3))
                                             for i in range(3)):
                continue  # no shift between them gives a translation
            for n0, n1, n2 in itertools.product(range(-box, box + 1), repeat=3):
                v = [n0 * b0[i] + n1 * b1[i] + n2 * b2[i] + th[i] for i in range(3)]
                found.append(tuple(Fraction(x + den * t, den * den)
                                   for x, t in zip(mat_vec(rg, v), tg)))
    return found


@pytest.mark.parametrize("name", ["two_tall", "tetra", "didi"])
def test_translation_lattice_is_two_tall(name):
    same_space, conjugate = presentations_of(preset(name))
    for P in same_space + [conjugate]:
        lat = translation_lattice(P)
        assert same_lattice(lat, P.lattice)
        if P is not conjugate:
            assert same_lattice(lat, TWO_TALL_LATTICE)
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


def fixed_sublattice_rank(P: PlatycosmPresentation) -> int:
    """Rank of the sublattice of the translation lattice fixed by every
    holonomy rotational part (equals betti_one)."""
    lat = translation_lattice(P)
    rows = []
    for g in P.holonomy_reps:
        d = mat_sub(IDENTITY, g.rot)
        for r in range(3):
            rows.append([dot(d[r], b) for b in lat.basis])
    return 3 - rank(rows)


@pytest.mark.parametrize("name", ["tetra", "didi", "two_tall", "cubical_torocosm"])
def test_betti_one_equals_fixed_sublattice_rank(name):
    P = preset(name)
    assert betti_one(P) == fixed_sublattice_rank(P)


# --- fixed-point freeness ----------------------------------------------------------


@pytest.mark.parametrize("name", ["tetra", "didi"])
def test_fixed_point_free_sweep(name):
    """For every non-identity rep (B, b) and every lattice shift with
    |b + lam| <= 10, the equation (I - B) x = b + lam has no solution.
    The walk is in integers: the whole system is scaled by the common
    denominator D of I - B, b and the lattice basis, which changes neither
    rank, and the filter becomes |D (b + lam)|^2 <= 100 D^2."""
    P = preset(name)
    for g in P.holonomy_reps[1:]:
        a = mat_sub(IDENTITY, g.rot)
        den = lcm(*(x.denominator for row in (*a, g.trans, *P.lattice.basis) for x in row))
        a_rows = [[int(x * den) for x in row] for row in a]
        t = [int(x * den) for x in g.trans]
        b0, b1, b2 = ([int(x * den) for x in b] for b in P.lattice.basis)
        base_rank = rank(a_rows)
        checked = 0
        for n0 in range(-11, 12):
            for n1 in range(-11, 12):
                for n2 in range(-6, 7):
                    rhs = [t[i] + n0 * b0[i] + n1 * b1[i] + n2 * b2[i] for i in range(3)]
                    if rhs[0] ** 2 + rhs[1] ** 2 + rhs[2] ** 2 > 100 * den * den:
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


# --- integer validator against the Fraction oracle ---------------------------------


def _raw(P):
    return [list(b) for b in P.lattice.basis], [(g.rot, g.trans) for g in P.holonomy_reps]


def _shifted(reps, i, shift):
    rot, trans = reps[i]
    return reps[:i] + [(rot, vec_add(trans, vec(*shift)))] + reps[i + 1:]


QUARTER_TURN_X = mat([[1, 0, 0], [0, 0, -1], [0, 1, 0]])


def _mutations(P):
    """(label, lattice rows, reps) breaking each invariant of P once."""
    rows, reps = _raw(P)
    skew = [rows[0], rows[1], [a + b for a, b in zip(rows[2], vec(Fraction(1, 3), 0, 0))]]
    axis_step = [Fraction(c, 4) for c in rows[2]]
    return [
        ("identity_not_first", rows, [reps[1], reps[0]] + reps[2:]),
        ("no_reps", rows, []),
        ("repeated_rotation", rows, reps + _shifted(reps, 1, rows[2])[1:2]),
        ("rotations_not_closed", rows, reps + [(QUARTER_TURN_X, (0, 0, 0))]),
        ("lattice_not_preserved", skew, reps),
        ("cosets_not_closed", rows, _shifted(reps, 1, axis_step)),
        ("screw_without_translation", rows, _shifted(reps, 1, vec_sub(vec(0, 0, 0), reps[1][1]))),
        ("not_orthogonal", rows, reps[:1] + [(mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), reps[1][1])]
         + reps[2:]),
        ("det_not_unit", rows, reps[:1] + [(tuple(tuple(2 * c for c in r) for r in reps[1][0]),
                                            reps[1][1])] + reps[2:]),
        ("degenerate_lattice", [rows[0], rows[1], [a + b for a, b in zip(rows[0], rows[1])]],
         reps),
    ]


def _oracle_corpus():
    spaces = [preset(name) for name in PRESET_NAMES] + [make_dicosm(), make_amphicosm(),
                                                       make_tricosm()]
    for name in ("tetra", "didi"):
        same_space, conjugate = presentations_of(preset(name))
        spaces += same_space[1:] + [conjugate, rotate_x(preset(name))]
    spaces.append(rotate_x(make_dicosm()))
    cases = [(f"{P.name}-{i}", *_raw(P)) for i, P in enumerate(spaces)]
    for P in (preset("tetra"), preset("didi"), make_dicosm(), rotate_x(preset("tetra")),
              swap_xz(preset("didi"))):
        cases += [(f"{P.name}-{label}", rows, reps) for label, rows, reps in _mutations(P)]
    inversion = mat([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    cases.append(("no_fixed_axis", [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                  [(IDENTITY, (0, 0, 0)), (inversion, (Fraction(1, 2), 0, 0))]))
    return cases


ORACLE_CORPUS = _oracle_corpus()


def _integer_verdict(rows, reps):
    try:
        PlatycosmPresentation("case", Lattice(rows), tuple(Isometry(r, t) for r, t in reps))
    except InvalidPresentationError as exc:
        return str(exc)
    return None


def test_oracle_corpus_breaks_every_invariant():
    messages = {presentation_oracle.verdict(rows, reps) for _, rows, reps in ORACLE_CORPUS}
    assert messages == {
        None,
        "first holonomy rep must be the identity",
        "holonomy rotational parts must be distinct",
        "holonomy rotational parts are not closed under product",
        "holonomy does not preserve the translation lattice",
        "coset representatives are not closed modulo the lattice",
        "holonomy rep composed with a lattice translation fixes a point",
        "a holonomy rep with no +1 eigenvalue always has a fixed point",
        "rotational part is not orthogonal",
        "lattice basis is degenerate",
    }


@pytest.mark.parametrize("label,rows,reps", ORACLE_CORPUS, ids=[c[0] for c in ORACLE_CORPUS])
def test_integer_validator_matches_fraction_oracle(label, rows, reps):
    """Same verdict and same message as the Fraction validator."""
    assert _integer_verdict(rows, reps) == presentation_oracle.verdict(rows, reps)


@pytest.mark.parametrize("doc_change", [
    lambda doc: doc.update(lattice=doc["lattice"][:2]),
    lambda doc: doc.update(lattice=doc["lattice"] + [["1", "0", "0"]]),
    lambda doc: doc["reps"][1].update(rot=doc["reps"][1]["rot"][:2]),
    lambda doc: doc["reps"][1].update(trans=doc["reps"][1]["trans"][:2]),
    lambda doc: doc["lattice"][0].append("0"),
    lambda doc: doc.update(lattice=["100", "010", "002"]),
    lambda doc: doc["reps"][1].update(trans="001"),
], ids=["lattice_2_rows", "lattice_4_rows", "rot_2_rows", "trans_2_entries", "row_4_entries",
        "rows_as_strings", "trans_as_string"])
def test_malformed_shapes_are_refused(doc_change):
    doc = presentation_to_json(preset("tetra"))
    doc_change(doc)
    shape = "malformed space document: .*(3x3|3 entries|expected a list)"
    with pytest.raises(InvalidPresentationError, match=shape):
        presentation_from_json(doc)


@pytest.mark.parametrize("numeral", ["1e5000000", "1E-5000000", "1" * 5000, "1/" + "1" * 5000])
def test_oversized_numerals_are_refused(numeral):
    doc = presentation_to_json(preset("tetra"))
    doc["lattice"][0][0] = numeral
    start = time.perf_counter()
    with pytest.raises(InvalidPresentationError, match="digits"):
        presentation_from_json(doc)
    assert time.perf_counter() - start < 0.5


def test_numerals_within_the_limit_are_read():
    doc = presentation_to_json(preset("tetra"))
    doc["lattice"][2][2] = "2e0"
    doc["reps"][1]["trans"][2] = "5e-1"
    assert presentation_from_json(doc) == preset("tetra")
