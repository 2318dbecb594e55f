"""Twisted geodesic classes: census, imprimitivity, weights, balance."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from platycosms.errors import (
    CutoffBudgetError,
    InvalidPresentationError,
    UnsupportedGeometryError,
)
from platycosms.euclid import (
    QUARTER_TURN_SCREW,
    Isometry,
    PlatycosmPresentation,
    compose,
    inverse,
    preset,
    translation,
)
from platycosms.geodesics import (
    GeodesicClass,
    _class_table,
    _conj_lattice,
    balance_table,
    balance_to_csv,
    classes_to_csv,
    imprimitivity,
    twist_factor,
    twisted_classes,
    weight,
)
from platycosms.linalg import hnf_rows, vec

import class_oracle
from class_oracle import unoriented_class as _unoriented_class
from conftest import class_census, isometry_power, make_dicosm, make_tricosm, presentations_of, swap_xz

TETRA = preset("tetra")
DIDI = preset("didi")
TAU = QUARTER_TURN_SCREW
HALF = Fraction(1, 2)


def signatures(classes):
    return [(c.length, c.twist_over_pi, c.imprimitivity, c.count) for c in classes]


# --- shortest geodesics --------------------------------------------------------


def test_tetra_shortest_are_two_quarter_twisters():
    assert signatures(twisted_classes(TETRA, HALF)) == [(HALF, HALF, 1, 2)]


def test_didi_shortest_are_four_half_twisters():
    assert signatures(twisted_classes(DIDI, HALF)) == [(HALF, Fraction(1), 1, 4)]


def test_tetra_length_one_classes():
    sigs = signatures(twisted_classes(TETRA, Fraction(1)))
    assert (Fraction(1), Fraction(1), 1, 1) in sigs
    assert (Fraction(1), Fraction(1), 2, 2) in sigs
    assert len(sigs) == 3


def test_didi_length_one_classes():
    sigs = signatures(twisted_classes(DIDI, Fraction(1)))
    assert sigs == [
        (HALF, Fraction(1), 1, 4),
        (Fraction(1), Fraction(1), 1, 2),
    ]


# --- primitive census ------------------------------------------------------------


@pytest.mark.parametrize("bound", [Fraction(2), Fraction(9, 2)])
def test_primitive_census(bound):
    """3 primitive twisted geodesics in tetra, 6 in didi; no new primitives
    appear at larger bounds."""
    tetra_prims = [c for c in twisted_classes(TETRA, bound) if c.imprimitivity == 1]
    didi_prims = [c for c in twisted_classes(DIDI, bound) if c.imprimitivity == 1]
    tetra_lengths = sorted(c.length for c in tetra_prims for _ in range(c.count))
    didi_lengths = sorted(c.length for c in didi_prims for _ in range(c.count))
    assert tetra_lengths == [HALF, HALF, 1]
    assert didi_lengths == [HALF, HALF, HALF, HALF, 1, 1]


def test_torocosms_have_no_twisted_classes():
    assert twisted_classes(preset("two_tall"), Fraction(3)) == ()
    assert twisted_classes(preset("cubical_torocosm"), Fraction(3)) == ()


# --- imprimitivity ----------------------------------------------------------------


def test_imprimitivity_of_generator():
    assert imprimitivity(TAU, TETRA) == 1


def test_imprimitivity_of_square():
    assert imprimitivity(isometry_power(TAU, 2), TETRA) == 2


def test_imprimitivity_of_sixth_power():
    assert imprimitivity(isometry_power(TAU, 6), TETRA) == 6


def test_imprimitivity_requires_twisted_element():
    with pytest.raises(ValueError):
        imprimitivity(translation(vec(1, 0, 0)), TETRA)


def test_imprimitivity_requires_group_element():
    alien = Isometry(TAU.rot, vec(Fraction(1, 3), 0, Fraction(1, 2)))
    with pytest.raises(ValueError):
        imprimitivity(alien, TETRA)


# --- weights ------------------------------------------------------------------------


def _cls(count, twist, k):
    return GeodesicClass(
        length=Fraction(1), twist_over_pi=twist, imprimitivity=k, count=count,
        witness=TAU,
    )


def test_weight_examples():
    assert weight(_cls(1, Fraction(1), 1)) == 1
    assert weight(_cls(1, HALF, 1)) == 2
    assert weight(_cls(2, HALF, 3)) == Fraction(4, 3)


def test_weight_rejects_other_twists():
    with pytest.raises(UnsupportedGeometryError):
        weight(_cls(1, Fraction(2, 3), 1))
    with pytest.raises(UnsupportedGeometryError):
        twist_factor(Fraction(1, 3))


# --- conjugacy-class structure -------------------------------------------------------


def _random_conjugator(rng, P):
    g = rng.choice(P.holonomy_reps)
    lam = P.lattice.from_coords([rng.randint(-3, 3) for _ in range(3)])
    return compose(translation(lam), g)


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_conjugation_invariance(space):
    rng = random.Random(4242)
    for cls in twisted_classes(space, Fraction(2)):
        witness = cls.witness
        key, _ = _unoriented_class(space, witness)
        for _ in range(8):
            h = _random_conjugator(rng, space)
            conj = compose(compose(h, witness), inverse(h))
            conj_key, _ = _unoriented_class(space, conj)
            assert conj_key == key
            assert imprimitivity(conj, space) == cls.imprimitivity


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_inversion_pairing(space):
    for cls in twisted_classes(space, Fraction(2)):
        key, _ = _unoriented_class(space, cls.witness)
        inv_key, _ = _unoriented_class(space, inverse(cls.witness))
        assert inv_key == key


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_power_law(space):
    """The class of gamma^m has length m*l, twist folded into (0, pi], and
    imprimitivity m for primitive gamma."""
    primitives = [
        c for c in twisted_classes(space, Fraction(1)) if c.imprimitivity == 1
    ]
    assert primitives
    for cls in primitives:
        for m in range(2, 7):
            folded = (m * cls.twist_over_pi) % 2
            if folded == 0:
                continue  # the power is an untwisted translation
            if folded > 1:
                folded = 2 - folded
            power = isometry_power(cls.witness, m)
            assert imprimitivity(power, space) == m
            lifted = twisted_classes(space, m * cls.length)
            assert any(
                c.length == m * cls.length
                and c.twist_over_pi == folded
                and c.imprimitivity == m
                for c in lifted
            )


def test_classes_deterministic_and_sorted():
    a = twisted_classes(TETRA, Fraction(7, 2))
    b = twisted_classes(TETRA, Fraction(7, 2))
    assert a == b
    assert list(a) == sorted(a, key=lambda c: c.signature)


def test_witnesses_are_group_elements():
    for space in (TETRA, DIDI):
        for cls in twisted_classes(space, Fraction(3)):
            assert space.contains(cls.witness)


@pytest.mark.parametrize(
    "space", [TETRA, DIDI, swap_xz(TETRA), swap_xz(DIDI)], ids=lambda P: P.name
)
def test_witnesses_equal_validated_isometries(space):
    """Witnesses are built without re-validation; each must equal, and hash
    like, the validated isometry with the same parts."""
    for c in twisted_classes(space, Fraction(9, 2)):
        w = c.witness
        validated = Isometry(w.rot, w.trans)
        assert w == validated and hash(w) == hash(validated)
        assert all(type(x) is Fraction for x in (*w.trans, *(y for r in w.rot for y in r)))


def _oracle_spaces():
    spaces = [make_dicosm()]
    for P in (TETRA, DIDI):
        same_space, conjugate = presentations_of(P)
        spaces += same_space + [conjugate]
    return spaces


@pytest.mark.parametrize(
    "space", _oracle_spaces(),
    ids=["dicosm"] + [f"{name}-{kind}" for name in ("tetra", "didi")
                      for kind in ("preset", "unreduced", "shifted", "rebased", "x_long")],
)
def test_enumerator_matches_element_oracle(space):
    """Class by class, the class-action table agrees with canonicalizing one
    element at a time: the same classes (each witness lies in a distinct
    oracle class), the same signature per class, the same counts."""
    oracle = class_oracle.census(space, Fraction(9, 2))
    for bound in (HALF, Fraction(1), Fraction(3), Fraction(9, 2)):
        expected = {key: sig for key, (sig, _) in oracle.items() if sig[0] <= bound}
        found = {}
        for sig, witness in class_census(space, bound):
            assert space.contains(witness)
            key, _ = _unoriented_class(space, witness)
            assert key not in found
            found[key] = sig
        assert found == expected
        counts = Counter(expected.values())
        assert {c.signature: c.count for c in twisted_classes(space, bound)} == counts


def test_families_are_read_only():
    space = PlatycosmPresentation("tetra-ro", TETRA.lattice, TETRA.holonomy_reps)
    before = twisted_classes(space, Fraction(2))
    fams = _class_table(space).fams
    with pytest.raises(TypeError):
        fams[0] = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        fams[0].screw = (0, 1)
    assert len(_class_table(space).fams) == 3
    twisted_classes.cache_clear()
    _class_table.cache_clear()
    assert _class_table(space).fams == fams
    assert twisted_classes(space, Fraction(2)) == before


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
def test_conj_lattice_is_the_hermite_form(diff):
    """The closed form of (I - B)Lambda, read from gcds and 2x2 minors,
    is the Hermite form of the column pairs (diff[1][k], diff[2][k]); a
    lattice of rank below 2 is refused."""
    pairs = [[diff[1][k], diff[2][k]] for k in range(3)]
    H = hnf_rows(pairs)
    if len(H) < 2:
        with pytest.raises(UnsupportedGeometryError, match="not rank 2"):
            _conj_lattice(diff)
    else:
        assert _conj_lattice(diff) == tuple(tuple(row) for row in H)


def test_enumeration_over_budget_is_refused():
    with pytest.raises(CutoffBudgetError):
        twisted_classes(DIDI, Fraction(10**9))
    # more n values than a range can count (over 2^63) are counted exactly
    with pytest.raises(CutoffBudgetError, match="over the budget"):
        twisted_classes(TETRA, Fraction(10**30))
    # spaces without twisted classes still pay one row per half-integer
    with pytest.raises(CutoffBudgetError):
        balance_table(preset("two_tall"), preset("cubical_torocosm"), Fraction(10**9))
    # the heat traces' largest radius stays within the budget
    for space in (TETRA, DIDI, swap_xz(TETRA), swap_xz(DIDI)):
        assert twisted_classes(space, Fraction(64))


def test_zero_length_screw_is_refused():
    """A half-turn about z with no translation fixes the z axis; such a
    presentation fails validation, and class enumeration refuses it too."""
    dicosm = make_dicosm()
    fixed = Isometry(dicosm.holonomy_reps[1].rot, vec(0, 0, 0))
    reps = (dicosm.holonomy_reps[0], fixed)
    with pytest.raises(InvalidPresentationError, match="fixes a point"):
        PlatycosmPresentation("fixed", dicosm.lattice, reps)
    space = object.__new__(PlatycosmPresentation)
    object.__setattr__(space, "name", "fixed")
    object.__setattr__(space, "lattice", dicosm.lattice)
    object.__setattr__(space, "holonomy_reps", reps)
    # the integer form the constructor would have refused
    object.__setattr__(space, "form", dataclasses.replace(dicosm.form, trans=((0, 0, 0),) * 2))
    with pytest.raises(InvalidPresentationError, match="zero-length screw"):
        twisted_classes(space, Fraction(1))


def test_max_length_must_be_positive():
    with pytest.raises(ValueError):
        twisted_classes(TETRA, Fraction(0))


def test_tricosm_axis_is_refused():
    with pytest.raises(UnsupportedGeometryError):
        twisted_classes(make_tricosm(), Fraction(2))


# --- balance table ---------------------------------------------------------------------


PUBLISHED_TOTALS = {
    Fraction(1, 2): Fraction(4),
    Fraction(1): Fraction(2),
    Fraction(3, 2): Fraction(4, 3),
    Fraction(2): Fraction(0),
    Fraction(5, 2): Fraction(4, 5),
    Fraction(3): Fraction(2, 3),
    Fraction(7, 2): Fraction(4, 7),
    Fraction(4): Fraction(0),
    Fraction(9, 2): Fraction(4, 9),
}


def test_balance_totals_match_published_column():
    pairs = balance_table(TETRA, DIDI, Fraction(9, 2))
    assert [p.length for p in pairs] == sorted(PUBLISHED_TOTALS)
    for pair in pairs:
        assert pair.balanced
        assert pair.left.total == PUBLISHED_TOTALS[pair.length]
        assert pair.right.total == PUBLISHED_TOTALS[pair.length]


def test_balance_totals_follow_closed_form_to_length_six():
    # beyond the published rows the same pattern continues: total weight
    # 2/l at every length except even integers, where it vanishes
    for pair in balance_table(TETRA, DIDI, Fraction(6)):
        l = pair.length
        expected = Fraction(0) if l.denominator == 1 and l % 2 == 0 else Fraction(2) / l
        assert pair.left.total == expected
        assert pair.right.total == expected


def test_balance_detects_imbalance():
    pairs = balance_table(TETRA, preset("two_tall"), Fraction(1, 2))
    assert not pairs[0].balanced
    assert pairs[0].left.total == 4
    assert pairs[0].right.total == 0


def test_balance_row_breakdown_length_one():
    pairs = balance_table(TETRA, DIDI, Fraction(1))
    row = next(p for p in pairs if p.length == 1)
    tetra_entries = [
        (e.count, e.twist_turns, e.imprimitivity, e.weight) for e in row.left.entries
    ]
    didi_entries = [
        (e.count, e.twist_turns, e.imprimitivity, e.weight) for e in row.right.entries
    ]
    assert tetra_entries == [
        (1, HALF, 1, Fraction(1)),
        (2, HALF, 2, Fraction(1)),
    ]
    assert didi_entries == [(2, HALF, 1, Fraction(2))]


# --- serialization -----------------------------------------------------------------------


def test_classes_csv():
    text = classes_to_csv(twisted_classes(TETRA, Fraction(1)))
    lines = text.strip().split("\n")
    assert lines[0] == "length,twist_over_pi,imprimitivity,count,weight"
    assert lines[1] == "1/2,1/2,1,2,4"
    assert "1,1,2,2,1" in lines


def test_balance_csv():
    text = balance_to_csv(
        balance_table(TETRA, DIDI, Fraction(2)), "tetra", "didi"
    )
    lines = text.strip().split("\n")
    assert lines[0] == "l,space,n,t,k,w,w_l"
    assert lines[1] == "1/2,tetra,2,1/4,1,4,4"
    assert lines[2] == "1/2,didi,4,1/2,1,4,4"
    # the empty length-2 row still appears, with zero total
    assert "2,tetra,,,,,0" in lines
    assert "2,didi,,,,,0" in lines
