"""Spectra: shells, character sums, orbit bookkeeping, isospectrality."""

import cmath
import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

from conftest import (
    make_amphicosm, make_dicosm, make_fcc_torus, make_skew_dicosm, make_tricosm,
    rotate_x, same_lattice, swap_xz,
)
import platycosms
from platycosms import selberg
from platycosms import spectrum as spectrum_module
from platycosms.errors import (
    CharacterSumError,
    CutoffBudgetError,
    UnsupportedCircumferenceError,
    UnsupportedGeometryError,
)
from platycosms.euclid import (
    CACHE_SIZE,
    Isometry,
    Lattice,
    PlatycosmPresentation,
    betti_one,
    preset,
    presentation_from_json,
    presentation_to_json,
    translation_lattice,
    volume,
)
from platycosms.geodesics import imprimitivity, twisted_classes
from platycosms.linalg import dot, mat
from platycosms.spectrum import (
    SPECTRAL_KEY_BUDGET,
    DualVector,
    OrbitSpec,
    SpectrumTable,
    circle_spectrum,
    dual_lattice,
    is_isospectral,
    multiplicity,
    orbit_dims,
    orbits_in_shell,
    shell,
    spectrum_table,
)

TETRA = preset("tetra")
DIDI = preset("didi")
HALF_DUAL = dual_lattice(Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])))


# --- dual lattices -------------------------------------------------------------


def test_dual_of_two_tall_lattice():
    assert same_lattice(
        HALF_DUAL, Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, Fraction(1, 2)]]))
    )


def test_dual_of_cubic_is_self():
    cubic = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert same_lattice(dual_lattice(cubic), cubic)


def test_dual_involution_random_integer_lattices():
    rng = random.Random(5)
    produced = 0
    while produced < 25:
        basis = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            L = Lattice(mat(basis))
        except Exception:
            continue
        produced += 1
        assert same_lattice(dual_lattice(dual_lattice(L)), L)


def test_dual_pairings_are_integral():
    L = Lattice(mat([[2, 1, 0], [0, 1, 0], [0, 0, 3]]))
    D = dual_lattice(L)
    for d in D.basis:
        for b in L.basis:
            assert dot(d, b).denominator == 1


# --- shells ---------------------------------------------------------------------


def _brute_shell(key, c2_filter=None):
    """Oracle: raw triple scan over the full coordinate box."""
    out = set()
    bound = int(key**0.5) + 2
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c2 in range(-bound, bound + 1):
                if 4 * a * a + 4 * b * b + c2 * c2 == key:
                    if c2_filter is None or c2_filter(c2):
                        out.add((a, b, c2))
    return out


def test_shell_examples():
    assert shell(HALF_DUAL, 0) == (DualVector(0, 0, 0),)
    assert set((v.a, v.b, v.c2) for v in shell(HALF_DUAL, 1)) == {(0, 0, 1), (0, 0, -1)}
    four = shell(HALF_DUAL, 4)
    assert len(four) == 6
    assert set((v.a, v.b, v.c2) for v in four) == _brute_shell(4)


@pytest.mark.parametrize("key", [0, 1, 2, 3, 5, 8, 12, 25, 36, 49])
def test_shell_against_brute_force(key):
    assert set((v.a, v.b, v.c2) for v in shell(HALF_DUAL, key)) == _brute_shell(key)


def test_shell_of_cubic_dual_filters_half_integers():
    cubic_dual = dual_lattice(Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert set((v.a, v.b, v.c2) for v in shell(cubic_dual, 4)) == _brute_shell(
        4, c2_filter=lambda c2: c2 % 2 == 0
    )


def test_shell_closed_under_negation_and_sorted():
    vs = shell(HALF_DUAL, 20)
    assert list(vs) == sorted(vs)
    assert set(vs) == {-v for v in vs}


def test_shell_rejects_off_grid_lattice():
    weird = Lattice(mat([[Fraction(1, 3), 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(UnsupportedGeometryError):
        shell(weird, 4)


# --- multiplicities --------------------------------------------------------------


def _numeric_multiplicity(P, key):
    """Oracle: trace of the averaging projector evaluated with complex
    floats straight from the isometry data (independent of the exact
    Gaussian-integer path)."""
    Lstar = dual_lattice(translation_lattice(P))
    total = 0j
    for v in shell(Lstar, key):
        w = v.vector()
        for g in P.holonomy_reps:
            image = tuple(
                sum(g.rot[r][c] * w[r] for r in range(3)) for c in range(3)
            )  # B^T w
            if image == w:
                total += cmath.exp(2j * cmath.pi * float(dot(w, g.trans)))
    value = total / len(P.holonomy_reps)
    assert abs(value.imag) < 1e-9
    assert abs(value.real - round(value.real)) < 1e-9
    return round(value.real)


@pytest.mark.parametrize(
    "space,key,expected",
    [
        (TETRA, 0, 1),
        (TETRA, 1, 0),
        (DIDI, 1, 0),
        (TETRA, 4, 1),
        (DIDI, 4, 1),
        (TETRA, 5, 2),
        (DIDI, 5, 2),
    ],
)
def test_multiplicity_examples(space, key, expected):
    assert multiplicity(space, key) == expected


@pytest.mark.parametrize("space", [TETRA, DIDI, preset("two_tall"), preset("cubical_torocosm")])
def test_multiplicity_matches_numeric_oracle(space):
    for key in range(0, 41):
        assert multiplicity(space, key) == _numeric_multiplicity(space, key)


def test_multiplicity_rejects_sixth_roots():
    with pytest.raises(UnsupportedGeometryError):
        multiplicity(make_tricosm(), 4)


# --- orbit bookkeeping -------------------------------------------------------------


def test_orbit_spec_canonicalization():
    assert OrbitSpec.of(DualVector(-2, 3, -5)) == OrbitSpec(3, 2, 5)
    assert OrbitSpec.of(DualVector(1, -1, 0)) == OrbitSpec(1, 1, 0)
    with pytest.raises(ValueError):
        OrbitSpec(1, 2, 0)


def test_orbit_vectors_generic_size():
    assert len(OrbitSpec(2, 1, 6).vectors()) == 16
    assert len(OrbitSpec(1, 0, 0).vectors()) == 4
    assert len(OrbitSpec(0, 0, 2).vectors()) == 2
    assert OrbitSpec(0, 0, 0).vectors() == (DualVector(0, 0, 0),)


@pytest.mark.parametrize("n", range(1, 11))
def test_exceptional_cases_ledger(n):
    """Odd n: the two axis orbits contribute one eigenfunction; even n:
    three -- identically for both spaces."""
    expected = 1 if n % 2 else 3
    for space in (TETRA, DIDI):
        total = orbit_dims(space, OrbitSpec(n, 0, 0)) + orbit_dims(
            space, OrbitSpec(0, 0, 2 * n)
        )
        assert total == expected


def test_odd_exceptional_case_split():
    # n odd: tetra keeps one mode from (n,0,0) and none from (0,0,n);
    # didi the other way around
    for n in (1, 3, 5):
        assert orbit_dims(TETRA, OrbitSpec(n, 0, 0)) == 1
        assert orbit_dims(TETRA, OrbitSpec(0, 0, 2 * n)) == 0
        assert orbit_dims(DIDI, OrbitSpec(n, 0, 0)) == 0
        assert orbit_dims(DIDI, OrbitSpec(0, 0, 2 * n)) == 1


def test_even_exceptional_case_split():
    for n in (2, 4, 6):
        assert orbit_dims(TETRA, OrbitSpec(n, 0, 0)) == 1
        assert orbit_dims(TETRA, OrbitSpec(0, 0, 2 * n)) == 2
        assert orbit_dims(DIDI, OrbitSpec(n, 0, 0)) == 2
        assert orbit_dims(DIDI, OrbitSpec(0, 0, 2 * n)) == 1


def test_half_integer_axis_orbits_die():
    for c2 in (1, 3, 5):
        assert orbit_dims(TETRA, OrbitSpec(0, 0, c2)) == 0
        assert orbit_dims(DIDI, OrbitSpec(0, 0, c2)) == 0


def test_generic_orbits_match_and_have_dim_four():
    rng = random.Random(99)
    for _ in range(40):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if a == b:
            b += 1
        hi, lo = max(a, b), min(a, b)
        c2 = rng.randint(1, 9)
        orbit = OrbitSpec(hi, lo, c2)
        d_tetra = orbit_dims(TETRA, orbit)
        d_didi = orbit_dims(DIDI, orbit)
        assert d_tetra == d_didi == 4
        assert len(orbit.vectors()) == 16


def test_no_two_zero_parameters_orbits_agree():
    """Whenever no two of a, b, c vanish the symmetrized dimensions agree."""
    for hi in range(0, 5):
        for lo in range(0, hi + 1):
            for c2 in range(0, 9):
                zeros = (hi == 0) + (lo == 0) + (c2 == 0)
                if zeros >= 2 and (hi, lo, c2) != (0, 0, 0):
                    continue
                orbit = OrbitSpec(hi, lo, c2)
                assert orbit_dims(TETRA, orbit) == orbit_dims(DIDI, orbit)


def test_orbit_dims_bounds():
    for orbit in (OrbitSpec(3, 2, 1), OrbitSpec(2, 0, 4), OrbitSpec(0, 0, 6)):
        size = len(orbit.vectors())
        for space in (TETRA, DIDI):
            d = orbit_dims(space, orbit)
            assert 0 <= d <= size


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_shell_partitions_into_orbits(space):
    """multiplicity(key) equals the sum of orbit dimensions over the
    canonical orbits partitioning the shell."""
    Lstar = dual_lattice(translation_lattice(space))
    for key in range(0, 61):
        orbits = orbits_in_shell(Lstar, key)
        covered = sorted(v for o in orbits for v in o.vectors() if v.norm_key == key)
        shell_vs = list(shell(Lstar, key))
        assert covered == shell_vs
        assert multiplicity(space, key) == sum(orbit_dims(space, o) for o in orbits)


# --- spectrum tables ---------------------------------------------------------------


def test_spectrum_table_examples():
    assert spectrum_table(TETRA, 5).entries == ((0, 1), (4, 1), (5, 2))
    assert spectrum_table(preset("two_tall"), 1).entries == ((0, 1), (1, 2))
    for name in ("tetra", "didi", "two_tall", "cubical_torocosm"):
        assert spectrum_table(preset(name), 0).entries == ((0, 1),)


@pytest.mark.parametrize(
    "space",
    [TETRA, DIDI, preset("two_tall"), preset("cubical_torocosm"), make_dicosm(),
     make_amphicosm(), swap_xz(TETRA), swap_xz(DIDI)],
)
def test_spectrum_table_consistent_with_per_key(space):
    """The table (shell sizes plus fixed-sublattice phases) against the
    per-key sum of every rep's full action on one shell."""
    table = spectrum_table(space, 200).as_dict()
    for key in range(201):
        assert table.get(key, 0) == multiplicity(space, key)


@pytest.mark.parametrize("space, gram, fixed", [
    (make_fcc_torus(), ((12, -4, -4), (-4, 12, -4), (-4, -4, 12)), []),
    (make_skew_dicosm(), ((5, -2, 0), (-2, 4, 0), (0, 0, 4)), [((4,),)]),
], ids=lambda v: getattr(v, "name", ""))
def test_non_diagonal_table_consistent_with_per_key(space, gram, fixed):
    """Tables on a non-diagonal Q (the ball enumeration of the identity
    term; a screw line for the dicosm) against per-key multiplicities."""
    data = spectrum_module._dual_action(space)
    assert data.gram == gram
    assert [act.fixed_gram for act in data.actions[1:]] == fixed
    table = spectrum_table(space, 300).as_dict()
    for key in range(301):
        assert table.get(key, 0) == multiplicity(space, key)


def test_amphicosm_glide_plane():
    assert spectrum_table(make_amphicosm(), 20).entries == (
        (0, 1), (4, 3), (8, 4), (12, 4), (16, 5), (20, 12)
    )


@pytest.mark.parametrize("name", ["tetra", "didi", "two_tall"])
def test_large_table_matches_spread_keys(name):
    space = preset(name)
    table = spectrum_table(space, 6400).as_dict()
    for key in range(0, 6400, 128):  # 50 spread keys
        probe = key + key % 7
        assert table.get(probe, 0) == multiplicity(space, probe)


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_x_long_conjugate_has_preset_table(space):
    conjugate = swap_xz(space)
    Lstar = dual_lattice(translation_lattice(conjugate))
    with pytest.raises(UnsupportedGeometryError):
        shell(Lstar, 4)  # off the (a, b, c) grid, yet the table works
    assert spectrum_table(conjugate, 400) == spectrum_table(space, 400)


def test_x_long_conjugates_isospectral():
    verdict = is_isospectral(swap_xz(TETRA), swap_xz(DIDI), 400)
    assert verdict.to_json_dict()["verdict"] == "equal"


def test_table_probes_call_multiplicity(monkeypatch):
    """Each new table re-checks the keys 0, 1, K//2 and K against the public
    per-key multiplicity; a disagreement raises instead of returning the
    table."""
    expected = spectrum_table(TETRA, 40)
    probed = []

    def wrong(P, key):
        probed.append(key)
        return -1

    monkeypatch.setattr(spectrum_module, "multiplicity", wrong)
    fresh = PlatycosmPresentation("tetra-probe", TETRA.lattice, TETRA.holonomy_reps)
    with pytest.raises(CharacterSumError):
        spectrum_table(fresh, 40)
    assert probed == [0]

    probed.clear()

    def recording(P, key):
        probed.append(key)
        return multiplicity(P, key)

    monkeypatch.setattr(spectrum_module, "multiplicity", recording)
    fresh = PlatycosmPresentation("tetra-probe-2", TETRA.lattice, TETRA.holonomy_reps)
    assert spectrum_table(fresh, 40) == expected
    assert probed == [0, 1, 20, 40]


def test_table_names_the_least_bad_key(monkeypatch):
    """Character sums that are not multiples of m fail at the least such key."""
    real = spectrum_module._shell_sizes

    def off_by_one(gram, max_key):
        sizes = real(gram, max_key)
        for key in (8, 4):
            sizes[key] += 1
        return sizes

    monkeypatch.setattr(spectrum_module, "_shell_sizes", off_by_one)
    fresh = PlatycosmPresentation("tetra-bad-sizes", TETRA.lattice, TETRA.holonomy_reps)
    with pytest.raises(CharacterSumError, match="at key 4 is "):
        spectrum_table(fresh, 40)


def test_table_refuses_negative_and_imaginary_sums(monkeypatch):
    """A negative multiple of m, or a sum with an imaginary part, is not a
    multiplicity either."""
    real = spectrum_module._shell_sizes

    def negative(gram, max_key):
        sizes = real(gram, max_key)
        sizes[5] -= 16  # the sum at key 5 was 8 = 2 m
        return sizes

    monkeypatch.setattr(spectrum_module, "_shell_sizes", negative)
    fresh = PlatycosmPresentation("tetra-negative", TETRA.lattice, TETRA.holonomy_reps)
    with pytest.raises(CharacterSumError, match=r"at key 5 is \(-8 \+ 0i\)/4"):
        spectrum_table(fresh, 40)
    monkeypatch.undo()

    # every phase of the glide plane gains an imaginary unit
    monkeypatch.setattr(spectrum_module, "_IM", (1, 1, 1, 1))
    amphicosm = make_amphicosm()
    fresh = PlatycosmPresentation("amphicosm-imaginary", amphicosm.lattice,
                                  amphicosm.holonomy_reps)
    with pytest.raises(CharacterSumError, match=r"at key 0 is \(2 \+ 1i\)/2"):
        spectrum_table(fresh, 20)


def test_equal_presentations_share_cache_entries():
    """Presentations built separately but equal hash alike, and the second
    hits the table cache entry of the first."""
    first = preset("tetra")
    table = spectrum_table(first, 37)
    for copy in (preset("tetra"), presentation_from_json(presentation_to_json(first))):
        assert copy is not first and copy == first and hash(copy) == hash(first)
        hits = spectrum_module._table.cache_info().hits
        assert spectrum_table(copy, 37) is table
        assert spectrum_module._table.cache_info().hits == hits + 1


def test_caches_stay_within_bound():
    ident = Isometry(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), (0, 0, 0))
    lattice = Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    for i in range(CACHE_SIZE + 10):
        space = PlatycosmPresentation(f"torus-{i}", lattice, (ident,))
        for bound in (i % 5, i % 5 + 5):
            spectrum_table(space, bound)
            twisted_classes(space, Fraction(bound + 1, 2))
    caches = {
        f"{module.__name__}.{name}": value
        for info in pkgutil.iter_modules(platycosms.__path__)
        for module in [importlib.import_module(f"platycosms.{info.name}")]
        for name, value in vars(module).items()
        if hasattr(value, "cache_info")
    }
    assert set(caches) >= {
        "platycosms.spectrum._dual_action", "platycosms.spectrum._table",
        "platycosms.geodesics._class_table", "platycosms.geodesics.twisted_classes",
    }
    for cache in caches.values():
        info = cache.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE


def test_key_budget_is_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("enumeration started")

    for name in ("_dual_action", "_table", "form_points", "_gram_coordinates"):
        monkeypatch.setattr(spectrum_module, name, no_work)
    over = SPECTRAL_KEY_BUDGET + 1
    for call in (
        lambda: spectrum_table(TETRA, over),
        lambda: is_isospectral(TETRA, DIDI, over),
        lambda: multiplicity(TETRA, over),
        lambda: shell(HALF_DUAL, over),
        lambda: circle_spectrum(Fraction(1, 2), over),
    ):
        with pytest.raises(CutoffBudgetError, match="budget"):
            call()
    assert selberg.SPECTRAL_KEY_BUDGET == SPECTRAL_KEY_BUDGET


def test_spectrum_table_validation():
    with pytest.raises(ValueError):
        SpectrumTable(5, ((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        SpectrumTable(5, ((0, 1), (9, 1)))
    with pytest.raises(ValueError):
        SpectrumTable(5, ((0, 1), (3, 0)))
    with pytest.raises(ValueError):
        SpectrumTable(5, ((0, 2),))
    for entries, message in [
        (((0, 1), (2, 1), (2, 1), (4, 1)), "sorted"),
        (((0, 1), (3, 1), (2, 1), (4, 1)), "sorted"),
        (((-1, 1), (0, 1)), "out of range"),
    ]:
        with pytest.raises(ValueError, match=message):
            SpectrumTable(5, entries)
    with pytest.raises(ValueError):
        spectrum_table(TETRA, -1)


def test_multiplicity_of_range():
    table = spectrum_table(TETRA, 5)
    assert table.multiplicity_of(3) == 0
    assert table.multiplicity_of(5) == 2
    with pytest.raises(ValueError):
        table.multiplicity_of(6)


def test_table_serialization():
    table = spectrum_table(TETRA, 5)
    assert table.to_json_dict() == {"max_key": 5, "entries": [[0, 1], [4, 1], [5, 2]]}
    assert table.to_csv() == (
        "key,eigenvalue_over_pi2,multiplicity\n0,0,1\n4,4,1\n5,5,2\n"
    )


# --- isospectrality ------------------------------------------------------------------


def test_isospectral_tetra_didi():
    verdict = is_isospectral(TETRA, DIDI, 400)
    assert verdict.equal
    assert verdict.first_differing_key is None


def test_not_isospectral_tetra_two_tall():
    verdict = is_isospectral(TETRA, preset("two_tall"), 4)
    assert not verdict.equal
    assert verdict.first_differing_key == 1
    assert verdict.left_multiplicity == 0
    assert verdict.right_multiplicity == 2


def test_first_difference_cases():
    """The smallest key up to the shared max_key whose multiplicities
    differ, with 0 for a key that one table lacks."""
    t = SpectrumTable(9, ((0, 1), (3, 2), (5, 1)))
    assert t.first_difference(t) is None
    assert t.first_difference(SpectrumTable(9, ((0, 1), (3, 4), (5, 2)))) == (3, 2, 4)
    assert t.first_difference(SpectrumTable(9, ((0, 1), (2, 1), (3, 2)))) == (2, 0, 1)
    assert t.first_difference(SpectrumTable(9, ((0, 1), (3, 2)))) == (5, 1, 0)
    # keys past the shorter table's max_key are not compared
    assert t.first_difference(SpectrumTable(4, ((0, 1), (3, 2)))) is None
    assert SpectrumTable(5, ((0, 1), (5, 1))).first_difference(
        SpectrumTable(9, ((0, 1),))) == (5, 1, 0)


@pytest.mark.parametrize("name", ["tetra", "didi", "two_tall", "cubical_torocosm"])
def test_isospectral_reflexive(name):
    P = preset(name)
    assert is_isospectral(P, P, 30).equal


def test_verdict_json():
    assert is_isospectral(TETRA, DIDI, 10).to_json_dict()["verdict"] == "equal"
    d = is_isospectral(TETRA, preset("two_tall"), 4).to_json_dict()
    assert d["verdict"] == "differs"
    assert d["first_differing_key"] == 1


# --- circles ----------------------------------------------------------------------


def test_circle_spectrum_examples():
    assert circle_spectrum(Fraction(1, 2), 16).entries == ((0, 1), (16, 2))
    assert circle_spectrum(Fraction(2), 4).entries == ((0, 1), (1, 2), (4, 2))
    assert circle_spectrum(Fraction(2), 0).entries == ((0, 1),)


def test_circle_spectrum_unsupported_circumference():
    with pytest.raises(UnsupportedCircumferenceError):
        circle_spectrum(Fraction(3), 10)
    with pytest.raises(UnsupportedCircumferenceError):
        circle_spectrum(Fraction(-1, 2), 10)


# --- presentation-shape robustness ---------------------------------------------


def test_unreduced_representatives_give_identical_invariants():
    """Shifting coset representatives by lattice vectors presents the same
    deck group; spectra and geodesic classes must not change."""
    from platycosms.euclid import Isometry, PlatycosmPresentation
    from platycosms.geodesics import twisted_classes
    from platycosms.linalg import vec, vec_add

    shifts = [(0, 0, 2), (1, 0, 0), (0, -1, 2)]
    shifted = [TETRA.holonomy_reps[0]]
    for g, s in zip(TETRA.holonomy_reps[1:], shifts):
        shifted.append(Isometry(g.rot, vec_add(g.trans, vec(*s))))
    other = PlatycosmPresentation("tetra_shifted", TETRA.lattice, tuple(shifted))
    assert spectrum_table(other, 60).entries == spectrum_table(TETRA, 60).entries

    def sigs(classes):
        return [(c.length, c.twist_over_pi, c.imprimitivity, c.count) for c in classes]

    assert sigs(twisted_classes(other, Fraction(5, 2))) == sigs(
        twisted_classes(TETRA, Fraction(5, 2))
    )


@pytest.mark.parametrize("name", ["tetra", "didi"])
def test_rational_rotation_conjugate_has_preset_invariants(name):
    """Turned by a rotation with denominator 5, the space keeps its
    spectrum, classes, volume and Betti number."""
    P = preset(name)
    Q = rotate_x(P)
    assert Q.form.den == P.form.den and Q.form.rots == P.form.rots
    assert spectrum_table(Q, 2000) == spectrum_table(P, 2000)
    left, right = twisted_classes(P, Fraction(9, 2)), twisted_classes(Q, Fraction(9, 2))
    assert [(c.signature, c.count) for c in left] == [(c.signature, c.count) for c in right]
    for c in right:
        assert Q.contains(c.witness) and imprimitivity(c.witness, Q) == c.imprimitivity
    assert (volume(Q), betti_one(Q)) == (volume(P), betti_one(P))
