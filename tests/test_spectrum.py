"""Spectra: shells, character sums, orbit dimensions, isospectrality."""

import cmath
import importlib
import importlib.util
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    clear_spectrum_memos, make_amphicosm, make_dicosm, make_fcc_torus, make_skew_dicosm,
    make_tricosm, rotate_x, same_lattice, swap_xz,
)
import platycosms
from platycosms import linalg, selberg
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
    compose,
    preset,
    presentation_from_json,
    presentation_to_json,
    translation_lattice,
    volume,
)
from platycosms.geodesics import imprimitivity, twisted_classes
from platycosms.linalg import dot, inv3, mat, mat_mul, mat_vec, transpose
from platycosms.spectrum import (
    SPECTRAL_KEY_BUDGET,
    SpectrumTable,
    circle_spectrum,
    dual_lattice,
    is_isospectral,
    multiplicity,
    orbit_dims,
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


def _abc2(vectors):
    """Vectors (a, b, c) as the triples (a, b, 2c) of the oracle; whole
    Fractions compare and hash as the ints they equal."""
    return {(a, b, 2 * c) for a, b, c in vectors}


def test_shell_examples():
    assert shell(HALF_DUAL, 0) == ((0, 0, 0),)
    assert _abc2(shell(HALF_DUAL, 1)) == {(0, 0, 1), (0, 0, -1)}
    four = shell(HALF_DUAL, 4)
    assert len(four) == 6
    assert _abc2(four) == _brute_shell(4)
    assert all(type(c) is Fraction for v in four for c in v)


@pytest.mark.parametrize("key", [0, 1, 2, 3, 5, 8, 12, 25, 36, 49])
def test_shell_against_brute_force(key):
    assert _abc2(shell(HALF_DUAL, key)) == _brute_shell(key)


def test_shell_of_cubic_dual_filters_half_integers():
    cubic_dual = dual_lattice(Lattice(mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])))
    assert _abc2(shell(cubic_dual, 4)) == _brute_shell(
        4, c2_filter=lambda c2: c2 % 2 == 0
    )


def test_shell_closed_under_negation_and_sorted():
    vs = shell(HALF_DUAL, 20)
    assert list(vs) == sorted(vs)
    assert set(vs) == {tuple(-c for c in v) for v in vs}


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
    for w in shell(Lstar, key):
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


# --- orbit dimensions -------------------------------------------------------------


def _orbit(a, b, c2):
    """The paper's orbit of (a, b, c) with c = c2/2: every vector made from
    it by sign flips and by swapping the first two frequencies."""
    out = set()
    for x, y in ((a, b), (b, a)):
        for sx in (1, -1):
            for sy in (1, -1):
                for sz in (1, -1):
                    out.add((Fraction(sx * x), Fraction(sy * y), Fraction(sz * c2, 2)))
    return sorted(out)


def _axes(n):
    """The six axis frequencies (+-n, 0, 0), (0, +-n, 0) and (0, 0, +-n)."""
    return _orbit(n, 0, 0) + _orbit(0, 0, 2 * n)


@pytest.mark.parametrize("n", range(1, 11))
def test_exceptional_cases_ledger(n):
    """Odd n: the two axis orbits contribute one eigenfunction; even n:
    three -- identically for both spaces."""
    expected = 1 if n % 2 else 3
    for space in (TETRA, DIDI):
        total = orbit_dims(space, _orbit(n, 0, 0)) + orbit_dims(space, _orbit(0, 0, 2 * n))
        assert total == expected


def test_odd_exceptional_case_split():
    # n odd: tetra keeps one mode from (n,0,0) and none from (0,0,n);
    # didi the other way around
    for n in (1, 3, 5):
        assert orbit_dims(TETRA, _orbit(n, 0, 0)) == 1
        assert orbit_dims(TETRA, _orbit(0, 0, 2 * n)) == 0
        assert orbit_dims(DIDI, _orbit(n, 0, 0)) == 0
        assert orbit_dims(DIDI, _orbit(0, 0, 2 * n)) == 1


def test_even_exceptional_case_split():
    for n in (2, 4, 6):
        assert orbit_dims(TETRA, _orbit(n, 0, 0)) == 1
        assert orbit_dims(TETRA, _orbit(0, 0, 2 * n)) == 2
        assert orbit_dims(DIDI, _orbit(n, 0, 0)) == 2
        assert orbit_dims(DIDI, _orbit(0, 0, 2 * n)) == 1


def test_half_integer_axis_orbits_die():
    for c2 in (1, 3, 5):
        assert orbit_dims(TETRA, _orbit(0, 0, c2)) == 0
        assert orbit_dims(DIDI, _orbit(0, 0, c2)) == 0


def test_generic_orbits_match_and_have_dim_four():
    rng = random.Random(99)
    for _ in range(40):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        if a == b:
            b += 1
        hi, lo = max(a, b), min(a, b)
        c2 = rng.randint(1, 9)
        orbit = _orbit(hi, lo, c2)
        d_tetra = orbit_dims(TETRA, orbit)
        d_didi = orbit_dims(DIDI, orbit)
        assert d_tetra == d_didi == 4
        assert len(orbit) == 16


def test_no_two_zero_parameters_orbits_agree():
    """Whenever no two of a, b, c vanish the symmetrized dimensions agree."""
    for hi in range(0, 5):
        for lo in range(0, hi + 1):
            for c2 in range(0, 9):
                zeros = (hi == 0) + (lo == 0) + (c2 == 0)
                if zeros >= 2 and (hi, lo, c2) != (0, 0, 0):
                    continue
                orbit = _orbit(hi, lo, c2)
                assert orbit_dims(TETRA, orbit) == orbit_dims(DIDI, orbit)


def test_orbit_dims_bounds():
    for orbit in (_orbit(3, 2, 1), _orbit(2, 0, 4), _orbit(0, 0, 6)):
        size = len(orbit)
        for space in (TETRA, DIDI):
            d = orbit_dims(space, orbit)
            assert 0 <= d <= size


@pytest.mark.parametrize("space", [TETRA, DIDI])
def test_shell_partitions_into_orbits(space):
    """multiplicity(key) equals the sum of orbit dimensions over the
    paper's orbits partitioning the shell."""
    Lstar = dual_lattice(translation_lattice(space))
    for key in range(0, 61):
        shell_vs = list(shell(Lstar, key))
        labels = {(*sorted((abs(a), abs(b)), reverse=True), abs(2 * c)) for a, b, c in shell_vs}
        orbits = [_orbit(*label) for label in labels]
        covered = sorted(v for o in orbits for v in o)
        assert covered == shell_vs
        assert multiplicity(space, key) == sum(orbit_dims(space, o) for o in orbits)


_SPACES = {
    **{name: preset(name) for name in ("tetra", "didi", "two_tall", "cubical_torocosm")},
    **{P.name: P for P in (make_dicosm(), make_amphicosm(), make_fcc_torus(),
                           make_skew_dicosm())},
    **{P.name: P for P in (conj(preset(name)) for name in ("tetra", "didi")
                           for conj in (swap_xz, rotate_x))},
}


@pytest.mark.parametrize("name", sorted(_SPACES))
def test_orbit_dims_of_each_shell_is_its_multiplicity(name):
    """On every lattice the tables accept, conjugates off the old (a, b, c)
    grid included, the invariant dimension of a whole shell is the key's
    multiplicity."""
    space = _SPACES[name]
    Lstar = dual_lattice(translation_lattice(space))
    for key in range(61):
        assert orbit_dims(space, shell(Lstar, key)) == multiplicity(space, key)


@pytest.mark.parametrize("conj", [swap_xz, rotate_x])
@pytest.mark.parametrize("P", [TETRA, DIDI], ids=["tetra", "didi"])
def test_conjugate_axis_orbit_dims_match_preset(P, conj):
    """The conjugate by an orthogonal Q moves each frequency v to Q v, with
    Q read from the lattice bases: conjugate basis^T = Q basis^T."""
    C = conj(P)
    Q = mat_mul(transpose(C.lattice.basis), inv3(transpose(P.lattice.basis)))
    for n in range(1, 11):
        moved = [mat_vec(Q, v) for v in _axes(n)]
        assert orbit_dims(C, moved) == orbit_dims(P, _axes(n))


def test_orbit_dims_refuses_what_is_not_a_dimension():
    """A frequency off the dual lattice, or a set the holonomy does not map
    to itself, is refused; no frequencies span nothing, and a repeated one
    counts once."""
    h = Fraction(1, 2)
    with pytest.raises(ValueError, match="not in the dual lattice"):
        orbit_dims(TETRA, [(h, 0, 0), (-h, 0, 0), (0, h, 0), (0, -h, 0)])
    with pytest.raises(ValueError, match="does not map"):
        orbit_dims(TETRA, [(1, 0, 0)])
    with pytest.raises(ValueError, match="does not map"):
        orbit_dims(DIDI, _orbit(1, 0, 0)[:-1])
    assert orbit_dims(TETRA, []) == orbit_dims(DIDI, iter(())) == 0
    assert orbit_dims(TETRA, _orbit(1, 0, 0) * 2) == orbit_dims(TETRA, _orbit(1, 0, 0)) == 1


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
    preset_dual = dual_lattice(translation_lattice(space))
    for key in (1, 4, 5, 20):
        # the dual lattice is off the old (a, b, c) grid, and its shells are
        # the preset's with x and z swapped
        assert shell(Lstar, key) == tuple(sorted((z, y, x) for x, y, z in shell(preset_dual, key)))
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


def test_table_probes_visit_half_shells(monkeypatch):
    """A work guard with no timing: the probes of a new Tetra table at K =
    600 take one integer square root per cross-section head and one per
    row.  The half-shell walk takes 389 of them; a walk over whole shells
    (772) or another probe key would take more."""
    real, calls = linalg.isqrt, []

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(linalg, "isqrt", counting)
    fresh = PlatycosmPresentation("tetra-work-guard", TETRA.lattice, TETRA.holonomy_reps)
    spectrum_table(fresh, 600)
    assert 0 < len(calls) <= 389


def _variants():
    """The benchmark's variant generator (`perfbench/variants.py`)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "variants.py"
    spec = importlib.util.spec_from_file_location("perfbench_variants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _variant(base: str, kind: int, seed: int) -> PlatycosmPresentation:
    variants = _variants()
    doc = variants.variant(base, kind, f"{base}-{kind}-{seed}", random.Random(seed))
    return presentation_from_json(doc)


def _amphidicosm() -> PlatycosmPresentation:
    """Z x Z x 2Z divided by a half-turn screw about z and a glide: the
    holonomy order m = 4 and the dual form Q = diag(4, 4, 1) of Tetra and
    Didi, with other twisted sums.  (A valid change of the translation of
    a Didi or Tetra screw is a lattice vector or a change of origin, which
    keeps the twisted sums.)"""
    h = Fraction(1, 2)
    screw = Isometry(mat([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]), (0, 0, 1))
    glide = Isometry(mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), (h, 0, 0))
    return PlatycosmPresentation("amphidicosm", TETRA.lattice,
                                 (TETRA.holonomy_reps[0], screw, glide, compose(screw, glide)))


def test_isospectral_pair_assembles_once(monkeypatch):
    """A work guard with no timing.  Fresh Tetra and Didi variants have the
    same m, Q and twisted sums, so at K = 600 the pair makes one assembly:
    one `_shell_sizes` call, and one walk of each probe shell with key >= 2
    (300 and 600).  Each side still runs its own 4 `multiplicity` probes."""
    counts = {"sizes": 0, "walks": 0, "probes": 0}

    def counting(name, real, keyed=False):
        def wrapper(*args):
            if not keyed or args[1] >= 2:
                counts[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(spectrum_module, "_shell_sizes",
                        counting("sizes", spectrum_module._shell_sizes))
    monkeypatch.setattr(spectrum_module, "half_shell",
                        counting("walks", spectrum_module.half_shell, keyed=True))
    monkeypatch.setattr(spectrum_module, "multiplicity",
                        counting("probes", spectrum_module.multiplicity))
    verdict = is_isospectral(_variant("tetra", 15, 1), _variant("didi", 13, 2), 600)
    assert verdict.equal
    assert counts == {"sizes": 1, "walks": 2, "probes": 8}
    assert spectrum_module._assembly.cache_info().misses == 1


@pytest.mark.parametrize("right, first", [
    (make_dicosm(), (4, 1, 4)),
    (preset("two_tall"), (1, 0, 2)),
    (_amphidicosm(), (4, 1, 3)),
], ids=lambda v: getattr(v, "name", ""))
def test_pairs_that_differ_share_no_assembly(right, first):
    """Tetra against a space with another m (the dicosm, the two-tall
    torus) or other twisted sums (the amphidicosm) gets two assemblies,
    and the verdict names the same first key and multiplicities as two
    tables built apart."""
    spectrum_module._table.cache_clear()
    verdict = is_isospectral(TETRA, right, 3000)
    assert spectrum_module._assembly.cache_info().misses == 2
    assert (verdict.first_differing_key, verdict.left_multiplicity,
            verdict.right_multiplicity) == first
    spectrum_module._table.cache_clear()
    clear_spectrum_memos()
    left = spectrum_table(TETRA, 3000)
    clear_spectrum_memos()
    assert left.first_difference(spectrum_table(right, 3000)) == first


def test_tables_do_not_depend_on_the_memos():
    """The presets, their conjugates and the benchmark's 48 variant kinds
    give the same tables at K = 600 whether each is built after the one
    before, sharing its assembly and probe shells, or with every memo and
    cache cleared."""
    spaces = [preset(name) for name in ("tetra", "didi", "two_tall", "cubical_torocosm")]
    spaces += [conj(P) for P in spaces[:2] for conj in (swap_xz, rotate_x)]
    spaces += [_variant(base, kind, 3) for base in ("tetra", "didi", "dicosm")
               for kind in range(16)]
    spectrum_module._table.cache_clear()
    shared = [spectrum_table(P, 600) for P in spaces]
    alone = []
    for P in spaces:
        spectrum_module._table.cache_clear()
        clear_spectrum_memos()
        alone.append(spectrum_table(P, 600))
    assert shared == alone


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
        f"{value.__module__}.{value.__qualname__}": value
        for info in pkgutil.iter_modules(platycosms.__path__)
        for module in [importlib.import_module(f"platycosms.{info.name}")]
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    # the presentation caches hold CACHE_SIZE entries; the memos of one
    # comparison hold one assembly per side and one shell per probe key
    sizes = {
        "platycosms.spectrum._dual_action": CACHE_SIZE, "platycosms.spectrum._table": CACHE_SIZE,
        "platycosms.geodesics._class_table": CACHE_SIZE,
        "platycosms.geodesics.twisted_classes": CACHE_SIZE,
        "platycosms.spectrum._assembly": 2, "platycosms.spectrum._probe_shell": 4,
    }
    assert set(caches) == set(sizes)
    for name, cache in caches.items():
        info = cache.cache_info()
        assert (info.maxsize, info.currsize) == (sizes[name], sizes[name])


def test_key_budget_is_checked_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("enumeration started")

    for name in ("_dual_action", "_table", "form_points", "reduced_gram", "_key_form"):
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


def test_spectrum_table_normalizes_entries_to_int_pairs():
    """Entries that are not already pairs of ints (bools, lists, any
    iterable) are stored as tuples of ints; a bad pair still raises."""
    expected = ((0, 1), (1, 2), (3, 1))
    for entries in (
        ((0, True), (True, 2), (3, 1)),
        [[0, 1], [1, 2], [3, 1]],
        iter([(0, 1), (1, 2), (3, True)]),
        expected,
    ):
        table = SpectrumTable(5, entries)
        assert table.entries == expected
        assert all(type(c) is int for pair in table.entries for c in pair)
        assert all(type(pair) is tuple for pair in table.entries)
    for bad in (((0, 1, 2),), ((0, 1), (2,)), ((0, 1), "ab"),
                ((0, 1), (2, 1.9)), ((0, 1), (2.7, 1)), ((0, 1), ("3", "2"))):
        with pytest.raises(ValueError):
            SpectrumTable(5, bad)


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
