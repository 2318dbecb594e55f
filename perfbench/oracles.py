"""Independent oracles for the benchmark's checks.

Nothing here calls the package under test.  Each check takes plain data
(entries, JSON documents, floats) and raises CheckFailed on a mismatch.

  spectrum   the closed form of Tetra's spectrum, which the paper's theorem
             says Didi shares:  mult(k) = (N(k) - a(k))/4 + a4(k), with
             N(k) = #{(a, b, c2) in Z^3 : 4a^2 + 4b^2 + c2^2 = k},
             a(k) = #{c2 : c2^2 = k} and a4(k) the same count over c2 in 4Z;
             and, for the control pair, the dicosm (Z x Z x 2Z divided by a
             half-turn screw about z through 1 along z):
             mult(k) = (N(k) + sum over c2^2 = k of (-1)^c2)/2
  verdict    the first key where two closed forms differ
  balance    per-length total weight w_l = 2/l for l in (1/2)Z minus 2Z and
             w_l = 0 for l in 2Z, from
             K_Tetra - K_TwoTall/4 = K_circ(1/2) - K_circ(2)/4;
             and the paper's census at length 1/2
  heat       the trace formula |spectral - geometric| <= both tail bounds,
             and the spectral value against sum mult(k) exp(-pi^2 k t)
             computed here from the closed form
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

# twist (as a fraction of a full turn) -> exact 1/sin^2(pi * twist)
_WEIGHT_FACTOR = {Fraction(1, 4): Fraction(2), Fraction(1, 2): Fraction(1)}

# the census at length 1/2: (n, t, k) of the single entry on each side
CENSUS_HALF = {
    "tetra": (2, Fraction(1, 4), 1),
    "didi": (4, Fraction(1, 2), 1),
}

# allowance for float rounding between two sums of the same positive terms
ROUNDING_ALLOWANCE = 1e-12


class CheckFailed(AssertionError):
    """An output disagrees with an oracle."""


def _spectrum(max_key: int, axis_term, denominator: int):
    """(key, multiplicity) for every key <= max_key with nonzero
    multiplicity, where mult(k) = (N(k) + axis_term(k)) / denominator."""
    shell = [0] * (max_key + 1)
    for a in range(-isqrt(max_key // 4), isqrt(max_key // 4) + 1):
        rem_a = max_key - 4 * a * a
        for b in range(-isqrt(rem_a // 4), isqrt(rem_a // 4) + 1):
            rem = rem_a - 4 * b * b
            for c2 in range(-isqrt(rem), isqrt(rem) + 1):
                shell[4 * a * a + 4 * b * b + c2 * c2] += 1
    entries = []
    for k, n in enumerate(shell):
        total = n + axis_term(k)
        if total % denominator:
            raise ArithmeticError(f"closed form is not integral at key {k}")
        if total:
            entries.append((k, total // denominator))
    return tuple(entries)


def _axis(k: int) -> tuple[int, ...]:
    """The c2 with c2^2 = k."""
    root = isqrt(k)
    if root * root != k:
        return ()
    return (0,) if k == 0 else (root, -root)


def tetra_spectrum(max_key: int) -> tuple[tuple[int, int], ...]:
    """Tetra's (and so Didi's) spectrum from the closed form."""
    # (N - a)/4 + a4 = (N - a + 4 a4)/4
    return _spectrum(
        max_key, lambda k: sum(3 if c2 % 4 == 0 else -1 for c2 in _axis(k)), 4)


def dicosm_spectrum(max_key: int) -> tuple[tuple[int, int], ...]:
    """The dicosm's spectrum from the closed form."""
    return _spectrum(max_key, lambda k: sum(1 - 2 * (c2 % 2) for c2 in _axis(k)), 2)


def check_spectrum(entries, expected) -> None:
    """`entries` must equal the oracle's entries, key by key."""
    entries = tuple((int(k), int(m)) for k, m in entries)
    if entries == expected:
        return
    got, want = dict(entries), dict(expected)
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            raise CheckFailed(
                f"multiplicity at key {key} is {got.get(key, 0)}, "
                f"closed form gives {want.get(key, 0)}"
            )
    raise CheckFailed("spectrum entries differ in order or repeat a key")


def check_verdict(verdict: dict, max_key: int, left, right) -> None:
    """The verdict at max_key must name the first key where the closed-form
    spectra `left` and `right` differ, with both multiplicities."""
    got, want = dict(left), dict(right)
    expected = {"verdict": "equal", "max_key": max_key, "first_differing_key": None,
                "left_multiplicity": None, "right_multiplicity": None}
    for key in sorted(set(got) | set(want)):
        if key <= max_key and got.get(key, 0) != want.get(key, 0):
            expected.update(verdict="differs", first_differing_key=key,
                            left_multiplicity=got.get(key, 0),
                            right_multiplicity=want.get(key, 0))
            break
    if verdict != expected:
        raise CheckFailed(f"verdict {verdict}, closed forms give {expected}")


def expected_weight(length: Fraction) -> Fraction:
    if (2 * length).denominator != 1:
        raise CheckFailed(f"length {length} is off the half-integer grid")
    if (length / 2).denominator == 1:
        return Fraction(0)
    return 2 / length


def _side(side: dict, length: Fraction, label: str) -> None:
    total = Fraction(side["w_l"])
    want = expected_weight(length)
    if total != want:
        raise CheckFailed(f"{label} w_l at l={length} is {total}, oracle gives {want}")
    weights = Fraction(0)
    for e in side["entries"]:
        t = Fraction(e["t"])
        factor = _WEIGHT_FACTOR.get(t)
        if factor is None:
            raise CheckFailed(f"{label} twist {t} at l={length} is not a half or quarter turn")
        w = Fraction(e["w"])
        if w != e["n"] * factor / e["k"]:
            raise CheckFailed(f"{label} entry {e} at l={length} has w != n*f/k")
        weights += w
    if weights != total:
        raise CheckFailed(f"{label} entries at l={length} sum to {weights}, not w_l {total}")


def check_balance(doc: dict, max_length: Fraction, left: str, right: str) -> None:
    """A balance document of Tetra (left) against Didi (right)."""
    if doc["left"] != left or doc["right"] != right:
        raise CheckFailed(f"labels {doc['left']!r}, {doc['right']!r}")
    if Fraction(doc["max_length"]) != max_length or doc["balanced"] is not True:
        raise CheckFailed("max_length or overall balance flag is wrong")
    lengths = [Fraction(row["l"]) for row in doc["rows"]]
    want = [Fraction(i, 2) for i in range(1, math.floor(2 * max_length) + 1)]
    if lengths != want:
        raise CheckFailed(f"row lengths {lengths}, expected {want}")
    for row in doc["rows"]:
        length = Fraction(row["l"])
        _side(row["left"], length, "left")
        _side(row["right"], length, "right")
        if row["balanced"] is not True:
            raise CheckFailed(f"row l={length} not flagged balanced")
        if length == Fraction(1, 2):
            for side, space in ((row["left"], "tetra"), (row["right"], "didi")):
                got = [(e["n"], Fraction(e["t"]), e["k"]) for e in side["entries"]]
                if got != [CENSUS_HALF[space]]:
                    raise CheckFailed(f"{space} census at l=1/2 is {got}")


def oracle_heat_trace(t: float) -> float:
    """sum mult(k) exp(-pi^2 k t) from the closed form, summed far enough
    that the omitted tail (below 8k per key) is under 1e-20."""
    max_key = math.ceil(60 / (math.pi * math.pi * t)) + 16
    return math.fsum(
        m * math.exp(-math.pi * math.pi * k * t) for k, m in tetra_spectrum(max_key)
    )


def check_heat(spectral, geometric, oracle: float) -> None:
    """spectral/geometric are (value, tail_bound) pairs."""
    (sv, sb), (gv, gb) = spectral, geometric
    if not abs(sv - gv) <= sb + gb:
        raise CheckFailed(f"|spectral - geometric| = {abs(sv - gv)} exceeds {sb + gb}")
    allowance = sb + ROUNDING_ALLOWANCE * max(1.0, abs(oracle))
    if not abs(sv - oracle) <= allowance:
        raise CheckFailed(f"spectral {sv} is {abs(sv - oracle)} from the oracle {oracle}")
