"""Planted faults: each breaks one step of a spectrum table and must end in
CharacterSumError at a stated key.

A fault is planted for one test only, by monkeypatching the `spectrum`
module (a wrapper, or a copy of one function compiled from its source with
one expression changed); the package source is never edited.  Each test
also records which check caught the fault: the one ascending pass over the
character sums (`pass`), or a per-key `multiplicity` probe at 0, 1 or the
largest nonempty shell at or below K//2 or K (`probe`), which fails either
inside its own sum or by disagreeing with the table.  Every test starts
with empty comparison memos, so a fresh name is a fresh assembly.
"""

import inspect
import re

import pytest

from conftest import clear_spectrum_memos
from platycosms import spectrum as spectrum_module
from platycosms.errors import CharacterSumError
from platycosms.euclid import PlatycosmPresentation, preset
from platycosms.spectrum import spectrum_table

TETRA = preset("tetra")


def _fresh(name: str) -> PlatycosmPresentation:
    """Tetra under a new name, so no cached table or dual action is reused."""
    return PlatycosmPresentation(f"tetra-fault-{name}", TETRA.lattice, TETRA.holonomy_reps)


def _mutant(func, old: str, new: str):
    """`func` compiled from its own source with the expression `old`, which
    must occur exactly once, replaced by `new`.  It runs on a copy of the
    module's globals, so the module itself is left as it was."""
    source = inspect.getsource(func)
    assert source.count(old) == 1, f"{old!r} is not one expression of {func.__name__}"
    namespace = dict(vars(spectrum_module))
    exec(compile(source.replace(old, new), spectrum_module.__file__, "exec"), namespace)
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
