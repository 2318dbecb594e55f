"""Planted faults: each breaks one step of a spectrum table and must end in
CharacterSumError at a stated key, or one step of the class census and
must fail a stated oracle at a stated length.

A fault is planted for one test only, by monkeypatching the `spectrum` or
`geodesics` module (a wrapper, or a copy of one function compiled from its
source with one expression changed); the package source is never edited.
Each spectrum test also records which check caught the fault: the one
ascending pass over the character sums (`pass`), or a per-key
`multiplicity` probe at 0, 1 or the largest nonempty shell at or below
K//2 or K (`probe`), which fails either inside its own sum or by
disagreeing with the table.  Every test starts with empty comparison
memos, so a fresh name is a fresh assembly.

The census has three oracles: the census at length 1/2 (Tetra's 2
quarter twisters, Didi's 4 half twisters), the weight rule l * w_l = 2 of
the balance table at every length l not in 2Z, and the element-by-element
classes of `tests/class_oracle.py`.
"""

import inspect
import re
from fractions import Fraction

import pytest

import class_oracle
from conftest import class_census, clear_spectrum_memos
from platycosms import geodesics as geodesics_module
from platycosms import spectrum as spectrum_module
from platycosms.errors import CharacterSumError
from platycosms.euclid import PlatycosmPresentation, preset
from platycosms.geodesics import balance_table, twisted_classes
from platycosms.spectrum import spectrum_table

TETRA = preset("tetra")
HALF = Fraction(1, 2)


def _fresh(name: str) -> PlatycosmPresentation:
    """Tetra under a new name, so no cached table or dual action is reused."""
    return PlatycosmPresentation(f"tetra-fault-{name}", TETRA.lattice, TETRA.holonomy_reps)


def _mutant(func, old: str, new: str):
    """`func` compiled from its own source with the expression `old`, which
    must occur exactly once, replaced by `new`.  It runs on a copy of its
    module's globals, so the module itself is left as it was."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, f"{old!r} is not one expression of {func.__name__}"
    module = inspect.getmodule(func)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


def _caught(space, max_key: int):
    """(check, key) of the CharacterSumError a new table ends in."""
    with pytest.raises(CharacterSumError) as info:
        spectrum_table(space, max_key)
    message = str(info.value)
    key = int(re.search(r" at (?:key )?(\d+)", message).group(1))
    probe = "disagrees" in message or any(e.name == "multiplicity" for e in info.traceback)
    return ("probe" if probe else "pass"), key


def test_wrong_screw_phase_is_caught_by_the_pass(monkeypatch):
    """Every point of a screw line turned a further quarter: the sum at key 1,
    on Tetra's z screw line, becomes 2, not a multiple of m = 4."""
    monkeypatch.setattr(spectrum_module, "_twisted_sums", _mutant(
        spectrum_module._twisted_sums, "step * y & 3", "(step * y + 1) & 3"))
    assert _caught(_fresh("phase"), 40) == ("pass", 1)


def test_dropped_screw_factor_two_is_caught_by_the_pass(monkeypatch):
    """A screw line walked over y >= 1 without its negatives: the sum at
    key 1 becomes 1."""
    monkeypatch.setattr(spectrum_module, "_twisted_sums", _mutant(
        spectrum_module._twisted_sums, "2 * _RE[", "_RE["))
    assert _caught(_fresh("factor"), 40) == ("pass", 1)


def test_flipped_sign_in_character_sum_is_caught_by_a_probe(monkeypatch):
    """The per-key sum negated: the table never calls it, so the first probe,
    at key 0, fails inside its own sum (-4, not a nonnegative multiple)."""
    real = spectrum_module._character_sum

    def flipped(data, points):
        re, im = real(data, points)
        return -re, im

    monkeypatch.setattr(spectrum_module, "_character_sum", flipped)
    assert _caught(_fresh("sign"), 40) == ("probe", 0)


def test_shell_walk_dropping_a_point_is_caught_by_a_probe(monkeypatch):
    """The shell walk behind each probe loses its first nonzero point.  At
    key 1 that point lies on the z screw line, whose points add 1 - 1 = 0,
    so nothing shows; at K//2 = 20 no point lies on a screw line, every
    point adds 1 to a sum of 24, and the probe fails there.  At K = 799,
    the benchmark's largest key, K//2 = 399 and K itself are empty shells;
    the probes go to 397 and 797, the largest nonempty ones at or below,
    and the one at 397 (24 points, none on a screw line) fails."""
    real = spectrum_module._character_sum

    def dropping(data, points):
        points = list(points)
        nonzero = [i for i, x in enumerate(points) if any(x)]
        if nonzero:
            del points[nonzero[0]]
        return real(data, points)

    monkeypatch.setattr(spectrum_module, "_character_sum", dropping)
    assert _caught(_fresh("drop"), 40) == ("probe", 20)
    assert _caught(_fresh("drop-799"), 799) == ("probe", 397)


def test_extra_points_at_key_zero_are_caught_by_the_key_zero_probe(monkeypatch):
    """The identity term counts m + 1 = 5 points at key 0, not the origin
    alone.  The sum there becomes 5 + 3 = 8 = 2m, a multiple of m that the
    pass accepts, and the table stores multiplicity 2 at key 0.  The probe
    at key 0, which sums the origin alone, reads 1 and fails there."""
    real = spectrum_module._shell_sizes

    def padded(gram, max_key):
        sizes = real(gram, max_key)
        sizes[0] += 4
        return sizes

    monkeypatch.setattr(spectrum_module, "_shell_sizes", padded)
    assert _caught(_fresh("key-0"), 40) == ("probe", 0)


def test_narrow_slot_width_is_caught_by_a_probe(monkeypatch):
    """Slots one step below the least width that holds the largest shell
    count.  For Tetra, key 1076 (count 264) is the first shell to overflow
    one byte, so the fault needs K >= 1076.  Its slot keeps 264 - 256 = 8, a
    sum still divisible by m = 4, so the pass accepts it and the probe at K
    = 1076 catches it.  Up to K = 799, the benchmark's largest key, the
    largest count is 240: one byte holds every count, the faulted table is
    exact and no check can catch the fault there."""
    sizes = spectrum_module._shell_sizes(spectrum_module._dual_action(TETRA).gram, 1076)
    assert max(sizes[:800]) == 240 and max(sizes[:1076]) < 256 and sizes[1076] == 264
    exact = spectrum_table(TETRA, 799)
    clear_spectrum_memos()  # else the faulted table below is the memo's exact one
    # the width is the least that holds the bound computed with `prod`: a
    # bound of 1 puts the product on 1-byte slots
    monkeypatch.setattr(spectrum_module, "prod", lambda factors: 1)
    assert spectrum_table(_fresh("narrow-799"), 799) == exact
    assert _caught(_fresh("narrow-1076"), 1076) == ("probe", 1076)


# --- class census -----------------------------------------------------------


def _census_checks(space, length: Fraction):
    """What each census oracle reads to `length`: the signatures of the
    census at length 1/2; l * w_l at each row of the balance table; and
    the classes of `class_oracle` that the census misses or meets twice,
    with the witness lengths it misreports."""
    at_half = [(c.length, c.twist_over_pi, c.imprimitivity, c.count)
               for c in twisted_classes(space, HALF)]
    weights = {p.length: p.length * p.left.total for p in balance_table(space, space, length)}
    oracle = {key: sig for key, (sig, _) in class_oracle.census(space, length).items()}
    found, twice, misread = {}, 0, []
    for sig, witness in class_census(space, length):
        key, _ = class_oracle.unoriented_class(space, witness)
        twice += key in found
        found[key] = sig
        if sig[0] != class_oracle.length(witness):
            misread.append((sig[0], class_oracle.length(witness)))
    return at_half, weights, len(oracle.keys() - found.keys()), twice, misread


def test_census_oracles_hold_on_tetra():
    at_half, weights, missed, twice, misread = _census_checks(_fresh("census"), Fraction(1))
    assert at_half == [(HALF, HALF, 1, 2)]
    assert weights == {HALF: 2, Fraction(1): 2}
    assert (missed, twice, misread) == (0, 0, [])


def test_wrong_step_vector_is_caught_by_the_census_at_half(monkeypatch):
    """Each family's step vector negated: the family walks its axis against
    its screw pair (a, g), so the point at n has axis value a - n*g while
    its length is read from |a + n*g|.  Tetra's quarter- and
    three-quarter-turn families, read at n in {0, -1} for length 1/2, reach
    elements of true length 1/2 and 7/2.  The census at 1/2 counts 4
    quarter twisters, not 2; the weight rule at l = 1/2 reads
    1/2 * 8 = 4, not 2; and the class oracle sees two witnesses of length
    7/2 reported at 1/2."""
    monkeypatch.setattr(geodesics_module, "_build_family", _mutant(
        geodesics_module._build_family, "basis = tuple(zip(*U))",
        "basis = tuple(zip([-c for c in U[0]], *U[1:]))"))
    at_half, weights, _, _, misread = _census_checks(_fresh("step"), HALF)
    assert at_half == [(HALF, HALF, 1, 4)]
    assert weights == {HALF: 4}
    assert misread == [(HALF, Fraction(7, 2))] * 2


def test_wrong_inverted_entry_is_caught_at_length_one(monkeypatch):
    """One entry of the class-action table moved: in Tetra's half-turn
    family (family 1, rotation order 2, so 2m/2 = 4 entries), the conjugate
    by rep 1 of a point's inverse lands one step further along the axis.
    The half twister at length 1 then never marks that conjugate, which is
    counted again as a class of its own.  No element of length 1/2 is in
    the family, so the census at 1/2 still passes; at l = 1 the weight rule
    reads 3, not 2, and the class oracle meets one class twice."""
    real = geodesics_module._actions

    def moved(fams, form):
        table = [list(row) for row in real(fams, form)]
        entry = list(table[1][3])  # (image, T row-major, e): e[0] is the axis step
        entry[10] += 1
        table[1][3] = tuple(entry)
        return tuple(map(tuple, table))

    monkeypatch.setattr(geodesics_module, "_actions", moved)
    at_half, weights, missed, twice, misread = _census_checks(_fresh("inverted"), Fraction(1))
    assert at_half == [(HALF, HALF, 1, 2)]
    assert weights == {HALF: 2, Fraction(1): 3}
    assert (missed, twice, misread) == (0, 1, [])
