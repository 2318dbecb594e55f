"""Exact Laplace spectra of platycosms from the character decomposition.

A Fourier mode with frequency v in the dual lattice Lstar of the
translation lattice has eigenvalue 4*pi^2*|v|^2, tracked through the
integer "norm key" key(v) = 4*|v|^2.  The multiplicity of a key is the
trace of the holonomy averaging projector on the span of its shell,
which splits by holonomy rep (the multiplicity formula for flat
manifolds of Miatello and Rossetti):

    mult(key) = (1/m) * [ |shell(key)|
                          + sum_{g != 1} sum_{v in Lstar, Bg^T v = v,
                                             key(v) = key} i^(4 v.bg) ]

A vector that g moves only permutes the shell, so each twisted rep sees
only its fixed sublattice.  All work runs in integer coordinates x of a
reduced basis of Lstar, where key = x^T Q x with Q = 4*Gram(Lstar); the
package requires Q to be integral and every phase to be a fourth root of
unity.  Phases are summed exactly in the Gaussian integers, and each
multiplicity is asserted to be a nonnegative integer.

Cost of a table up to key K, summed in lists indexed by key 0..K:

  identity term   shell sizes for every key at once.  When Q is
                  diagonal they are the product of the three theta
                  series sum_y x^(q y^2), each held in one int with a
                  fixed-width slot per key: the densest series starts
                  the product and each other one adds ~sqrt(K/q) shifted
                  copies of it, O(K^1.5) machine words in all, then one
                  unpacking.  Otherwise an enumeration of the
                  ~(4pi/3)K^1.5/sqrt(det Q) points of the ball in Q
                  coordinates;
  twisted terms   the points of the integer fixed sublattice ker(Bg^T - 1)
                  in the ball: O(sqrt K) walked directly along the line
                  of a screw, O(K) on the plane of a glide;
  multiplicities  one ascending pass over the K + 1 sums;
  self-check      `multiplicity` at the keys 0, 1, K//2 and K: O(K) for
                  the four together.

`multiplicity` evaluates one key independently of the table's fixed-line
data.  It walks the O(K) (a, b) heads of the ellipsoid's cross-sections
and keeps a head only when the discriminant of the quadratic in the last
coordinate is a perfect square, which yields that shell's points with one
integer square root per head.  To each point it applies every rep's full
matrix and phase, testing M x = x in plain integer arithmetic.

`shell`, `orbit_dims` and the `DualVector`/`OrbitSpec` labels describe
frequencies on the (a, b, c) grid Z x Z x (1/2)Z and refuse a dual
lattice outside it.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import isqrt, prod
from operator import ge
from typing import NamedTuple, Optional

from .errors import (
    CharacterSumError,
    CutoffBudgetError,
    UnsupportedCircumferenceError,
    UnsupportedGeometryError,
    abridged,
)
from .euclid import CACHE_SIZE, Lattice, PlatycosmPresentation
from .linalg import (
    Vec3, adj3, det3, dot, form_points, inv3, mat_mul, mat_vec,
    reduced_gram, size_reduce, transpose, vec,
)

__all__ = [
    "DualVector",
    "OrbitSpec",
    "SpectrumTable",
    "IsospectralVerdict",
    "dual_lattice",
    "shell",
    "multiplicity",
    "orbit_dims",
    "orbits_in_shell",
    "spectrum_table",
    "is_isospectral",
    "circle_spectrum",
]

# Largest norm key any spectrum (circles included), multiplicity or shell
# enumerates, checked before the work starts.  spectrum_table(tetra, K) takes
# about 0.2 s at K = 100,000 and 1.3 s at K = 400,000 (Python 3.11, one core
# of a 2-vCPU machine).
SPECTRAL_KEY_BUDGET = 2_000_000


def _check_budget(key: int, what: str) -> None:
    if key > SPECTRAL_KEY_BUDGET:
        raise CutoffBudgetError(
            f"{what} to norm key {abridged(key)} is over the budget of {SPECTRAL_KEY_BUDGET} keys"
        )


@dataclass(frozen=True, order=True)
class DualVector:
    """Frequency vector (a, b, c) with c stored as the integer 2c."""

    a: int
    b: int
    c2: int

    @property
    def norm_key(self) -> int:
        return 4 * self.a * self.a + 4 * self.b * self.b + self.c2 * self.c2

    def vector(self) -> Vec3:
        return vec(self.a, self.b, Fraction(self.c2, 2))

    def __neg__(self) -> "DualVector":
        return DualVector(-self.a, -self.b, -self.c2)


@dataclass(frozen=True, order=True)
class OrbitSpec:
    """Canonical label (a >= b >= 0, c >= 0) of the span generated from
    (a, b, c) by sign flips and by swapping the first two frequencies."""

    a: int
    b: int
    c2: int

    def __post_init__(self):
        if not (self.a >= self.b >= 0 and self.c2 >= 0):
            raise ValueError("orbit label must satisfy a >= b >= 0, c >= 0")

    @classmethod
    def of(cls, v: DualVector) -> "OrbitSpec":
        hi, lo = sorted((abs(v.a), abs(v.b)), reverse=True)
        return cls(hi, lo, abs(v.c2))

    def vectors(self) -> tuple[DualVector, ...]:
        out = set()
        for x, y in ((self.a, self.b), (self.b, self.a)):
            for sx in (1, -1):
                for sy in (1, -1):
                    for sz in (1, -1):
                        out.add(DualVector(sx * x, sy * y, sz * self.c2))
        return tuple(sorted(out))


@dataclass(frozen=True)
class SpectrumTable:
    """Sparse exact spectrum: (key, multiplicity) pairs for keys <= max_key.

    Absent keys have multiplicity zero.  Eigenvalues are pi^2 * key.
    """

    max_key: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple((int(k), int(m)) for k, m in self.entries)
        object.__setattr__(self, "entries", entries)
        # strictly increasing keys are sorted and distinct, and lie between
        # the first key and the last
        keys = [k for k, _ in entries]
        if any(map(ge, keys, keys[1:])):
            raise ValueError("entries must be sorted by key without repeats")
        if keys and (keys[0] < 0 or keys[-1] > self.max_key):
            raise ValueError("entry key out of range")
        if any(m <= 0 for _, m in entries):
            raise ValueError("stored multiplicities must be positive")
        if entries and entries[0] != (0, 1):
            raise ValueError("key 0 must carry the single constant eigenfunction")

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def multiplicity_of(self, key: int) -> int:
        if key < 0 or key > self.max_key:
            raise ValueError(f"key {key} outside enumerated range 0..{self.max_key}")
        return self.as_dict().get(key, 0)

    def first_difference(self, other: "SpectrumTable"):
        """Smallest key (up to the shared max_key) where the tables differ,
        as (key, self_mult, other_mult); None if they agree."""
        if self.entries == other.entries:
            return None
        bound = min(self.max_key, other.max_key)
        d1, d2 = self.as_dict(), other.as_dict()
        for key in sorted(set(d1) | set(d2)):
            if key > bound:
                break
            m1, m2 = d1.get(key, 0), d2.get(key, 0)
            if m1 != m2:
                return key, m1, m2
        return None

    def to_json_dict(self) -> dict:
        return {"max_key": self.max_key, "entries": [list(e) for e in self.entries]}

    def to_csv(self) -> str:
        lines = ["key,eigenvalue_over_pi2,multiplicity"]
        lines.extend(f"{k},{k},{m}" for k, m in self.entries)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class IsospectralVerdict:
    equal: bool
    max_key: int
    first_differing_key: Optional[int] = None
    left_multiplicity: Optional[int] = None
    right_multiplicity: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": "equal" if self.equal else "differs",
            "max_key": self.max_key,
            "first_differing_key": self.first_differing_key,
            "left_multiplicity": self.left_multiplicity,
            "right_multiplicity": self.right_multiplicity,
        }


def dual_lattice(L: Lattice) -> Lattice:
    """Lattice of vectors pairing integrally with every vector of L."""
    return Lattice(inv3(transpose(L.basis)))


def _gram_coordinates(Lstar: Lattice):
    """(reduced basis, Q = 4 * its Gram matrix as integers)."""
    basis, gram, den = reduced_gram(Lstar.basis)
    if any(4 * c % den for row in gram for c in row):
        raise UnsupportedGeometryError(
            "4 x Gram matrix of the dual lattice is not integral, so norm keys "
            "are not integers"
        )
    return basis, tuple(tuple(4 * c // den for c in row) for row in gram)


def _require_grid(Lstar: Lattice) -> None:
    for row in Lstar.basis:
        if row[0].denominator != 1 or row[1].denominator != 1 or (2 * row[2]).denominator != 1:
            raise UnsupportedGeometryError(
                "dual lattice is not contained in the Z x Z x (1/2)Z grid"
            )


def shell(Lstar: Lattice, key: int) -> tuple[DualVector, ...]:
    """All dual vectors of norm key exactly `key`, sorted, closed under
    negation."""
    if key < 0:
        raise ValueError("norm keys are nonnegative")
    _check_budget(key, "shell")
    _require_grid(Lstar)
    basis, gram = _gram_coordinates(Lstar)
    out = []
    for x, _ in form_points(gram, key, key):
        v = [sum(xi * d[k] for xi, d in zip(x, basis)) for k in range(3)]
        out.append(DualVector(int(v[0]), int(v[1]), int(2 * v[2])))
    return tuple(sorted(out))


# --- holonomy action on dual coordinates -------------------------------------


class _RepAction(NamedTuple):
    """One holonomy rep acting on dual coordinates x.

    `M` is the integer matrix of B^T, and the phase of a fixed x is
    i^(4 v.b) with 4 v.b = phase.x / den.  For a twisted rep,
    `fixed_gram` is Q restricted to a reduced basis of the fixed
    sublattice ker(M - 1), and `fixed_phase` gives the phase numerators
    of that basis; both are empty for the identity, whose term the table
    takes from the shell sizes."""

    M: tuple[tuple[int, ...], ...]
    phase: tuple[int, ...]
    fixed_gram: tuple[tuple[int, ...], ...]
    fixed_phase: tuple[int, ...]


class _DualData(NamedTuple):
    m: int
    lattice: Lattice  # Lstar on its reduced basis
    gram: tuple[tuple[int, ...], ...]
    den: int
    actions: tuple[_RepAction, ...]  # the identity first


@lru_cache(maxsize=CACHE_SIZE)
def _dual_action(P: PlatycosmPresentation) -> _DualData:
    """The dual action from the integer form.  Coordinates y on the basis
    dual to the lattice basis pair a dual vector with lattice coordinates
    (y . x), so B^T acts on them by A^T and a translation with lattice
    coordinates c/den has phase 4 y.c / den.  The reduced basis is U
    times that one, with Gram matrix U G^-1 U^T for the lattice Gram
    matrix G = basis basis^T / scale^2.  On reduced coordinates B^T is
    M = U^-T A^T U^T, so its fixed sublattice ker(M - 1) is U^-T times
    the rotation's kernel ker(A^T - 1) that the integer form keeps."""
    form = P.form
    gram = mat_mul(form.basis, transpose(form.basis))
    gram_adj, gram_det = adj3(gram), det3(gram)
    U = size_reduce(((1, 0, 0), (0, 1, 0), (0, 0, 1)), lambda u, w: dot(u, mat_vec(gram_adj, w)))
    num = 4 * form.scale * form.scale
    Q = mat_mul(mat_mul(U, gram_adj), transpose(U))
    if any(num * c % gram_det for row in Q for c in row):
        raise UnsupportedGeometryError(
            "4 x Gram matrix of the dual lattice is not integral, so norm keys "
            "are not integers"
        )
    Q = tuple(tuple(num * c // gram_det for c in row) for row in Q)
    # U is unimodular: U^-1 = det(U) adj(U)
    U_inv_t = transpose(tuple(tuple(det3(U) * c for c in row) for row in adj3(U)))
    cartesian = mat_mul(U, form.adj)  # the reduced basis times det / scale
    lattice = Lattice(tuple(tuple(Fraction(form.scale * c, form.det) for c in row)
                            for row in cartesian))

    def ip(u, w):
        return dot(u, mat_vec(Q, w))

    actions = []
    for i, (A, c) in enumerate(zip(form.rots, form.trans)):
        M = mat_mul(mat_mul(U_inv_t, transpose(A)), transpose(U))
        phase = tuple(4 * x for x in mat_vec(U, c))
        fixed = size_reduce([mat_vec(U_inv_t, f) for f in form.fixed[i - 1]], ip) if i else ()
        actions.append(_RepAction(
            M=M,
            phase=phase,
            fixed_gram=tuple(tuple(ip(u, w) for w in fixed) for u in fixed),
            fixed_phase=tuple(dot(f, phase) for f in fixed),
        ))
    return _DualData(len(P.holonomy_reps), lattice, Q, form.den, tuple(actions))


def _quarter_turns(num: int, den: int) -> int:
    """r in 0..3 with phase i^r = i^(num/den); raises unless num/den is an
    integer (phases outside the fourth roots of unity are out of reach)."""
    if num % den:
        raise UnsupportedGeometryError("character phase is not a fourth root of unity")
    return (num // den) & 3


_RE = (1, 0, -1, 0)
_IM = (0, 1, 0, -1)


def _character_sum(data: _DualData, points) -> tuple[int, int]:
    """sum over points x and reps g with Mg x = x of the phase, as (re, im)."""
    den = data.den
    # each rep's full matrix and phase, as 12 flat ints
    reps = [(*act.M[0], *act.M[1], *act.M[2], *act.phase) for act in data.actions]
    re = im = 0
    for x0, x1, x2 in points:
        for m00, m01, m02, m10, m11, m12, m20, m21, m22, p0, p1, p2 in reps:
            if (
                m00 * x0 + m01 * x1 + m02 * x2 == x0
                and m10 * x0 + m11 * x1 + m12 * x2 == x1
                and m20 * x0 + m21 * x1 + m22 * x2 == x2
            ):
                r = _quarter_turns(p0 * x0 + p1 * x1 + p2 * x2, den)
                re += _RE[r]
                im += _IM[r]
    return re, im


def _finalize(key: int, re: int, im: int, m: int) -> int:
    if im != 0 or re < 0 or re % m != 0:
        raise CharacterSumError(
            f"character sum at key {key} is ({re} + {im}i)/{m}, "
            "not a nonnegative integer"
        )
    return re // m


def multiplicity(P: PlatycosmPresentation, key: int) -> int:
    """Exact dimension of the holonomy-invariant subspace of the key shell."""
    if key < 0:
        raise ValueError("norm keys are nonnegative")
    _check_budget(key, "multiplicity")
    data = _dual_action(P)
    re, im = _character_sum(data, (x for x, _ in form_points(data.gram, key, key)))
    return _finalize(key, re, im, data.m)


def orbit_dims(P: PlatycosmPresentation, orbit: OrbitSpec) -> int:
    """Dimension of the symmetrized image of the orbit's span."""
    data = _dual_action(P)
    _require_grid(data.lattice)
    vectors = orbit.vectors()
    points = []
    for v in vectors:
        x = data.lattice.coords(v.vector())
        if any(c.denominator != 1 for c in x):
            raise ValueError(f"orbit vector {v} is not in the dual lattice")
        points.append(tuple(int(c) for c in x))
    re, im = _character_sum(data, points)
    return _finalize(vectors[0].norm_key, re, im, data.m)


def orbits_in_shell(Lstar: Lattice, key: int) -> tuple[OrbitSpec, ...]:
    """Canonical orbit labels partitioning the key shell."""
    return tuple(sorted({OrbitSpec.of(v) for v in shell(Lstar, key)}))


# --- spectrum tables -----------------------------------------------------------


# array and memoryview formats of the unsigned slot widths, in bytes
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _shell_sizes(gram, max_key: int) -> list[int]:
    """|shell(key)| for every key 0..max_key, as a list indexed by key."""
    if any(gram[i][j] for i in range(3) for j in range(3) if i != j):
        sizes = [0] * (max_key + 1)
        for _, key in form_points(gram, 0, max_key):
            sizes[key] += 1
        return sizes
    # diagonal: the product of the theta series sum_y x^(q y^2), truncated
    # at max_key, each held in one int whose slot k of `width` bytes is the
    # coefficient of x^k.  No coefficient exceeds the number of points of
    # the box |y_i| <= sqrt(K / q_i), so the width is taken from that count
    # and no slot carries into the next (under the key budget it stays
    # below 2^64).
    qs = sorted((gram[0][0], gram[1][1], gram[2][2]))
    box = prod(2 * isqrt(max_key // q) + 1 for q in qs)
    width = 1
    while box >> 8 * width:
        width *= 2
    bits, fmt = 8 * width, _SLOT_FORMATS[width]
    # In the host's byte order an int's bytes run from slot 0 on a
    # little-endian host and from the last slot on a big-endian one.
    big = sys.byteorder == "big"
    # Every shifted add costs O(max_key), so the densest series (least q)
    # starts the product and the sparser ones, with fewer terms, are added
    # on by shifts.
    theta = array(fmt, bytes(width * (max_key + 1)))
    theta[0] = 1
    for y in range(1, isqrt(max_key // qs[0]) + 1):
        theta[qs[0] * y * y] = 2
    if big:
        theta.reverse()
    series = int.from_bytes(theta, sys.byteorder)
    mask = (1 << bits * (max_key + 1)) - 1
    for q in qs[1:]:
        # times 1 + 2 sum_{y >= 1} x^(q y^2)
        acc = series
        for y in range(1, isqrt(max_key // q) + 1):
            acc += series << bits * q * y * y + 1
        series = acc & mask
    raw = series.to_bytes(width * (max_key + 1), sys.byteorder)
    sizes = memoryview(raw).cast(fmt).tolist()
    if big:
        sizes.reverse()
    return sizes


@lru_cache(maxsize=CACHE_SIZE)
def _table(P: PlatycosmPresentation, max_key: int) -> SpectrumTable:
    data = _dual_action(P)
    den = data.den
    re = _shell_sizes(data.gram, max_key)
    im = [0] * (max_key + 1)
    for act in data.actions[1:]:
        if len(act.fixed_gram) == 1:
            # a screw line: the points y and -y share the key q y^2 and have
            # conjugate phases i^(+-p y / den), so they add 2 Re i^(p y / den)
            q, p = act.fixed_gram[0][0], act.fixed_phase[0]
            re[0] += 1
            for y in range(1, isqrt(max_key // q) + 1):
                re[q * y * y] += 2 * _RE[_quarter_turns(p * y, den)]
            continue
        for y, key in form_points(act.fixed_gram, 0, max_key):
            r = _quarter_turns(sum(a * b for a, b in zip(act.fixed_phase, y)), den)
            re[key] += _RE[r]
            im[key] += _IM[r]
    # one ascending pass, so a failure names the least bad key
    m = data.m
    entries = []
    for key, r, i in zip(count(), re, im):
        if r or i:
            if i or r < 0 or r % m:
                _finalize(key, r, i, m)  # raises
            entries.append((key, r // m))
    table = SpectrumTable(max_key, tuple(entries))
    # spot-check the decomposition against independent per-key shell sums
    for key in sorted({0, 1, max_key // 2, max_key}):
        if key <= max_key and multiplicity(P, key) != re[key] // m:
            raise CharacterSumError(
                f"aggregate table disagrees with per-key multiplicity at {key}"
            )
    return table


def spectrum_table(P: PlatycosmPresentation, max_key: int) -> SpectrumTable:
    """Multiplicities of every norm key from 0 to max_key."""
    if max_key < 0:
        raise ValueError("max_key must be nonnegative")
    _check_budget(max_key, "spectrum table")
    return _table(P, max_key)


def is_isospectral(
    P1: PlatycosmPresentation, P2: PlatycosmPresentation, max_key: int
) -> IsospectralVerdict:
    """Exact key-by-key comparison of two spectra up to max_key."""
    _check_budget(max_key, "isospectrality check")
    t1 = spectrum_table(P1, max_key)
    t2 = spectrum_table(P2, max_key)
    diff = t1.first_difference(t2)
    if diff is None:
        return IsospectralVerdict(True, max_key)
    key, m1, m2 = diff
    return IsospectralVerdict(False, max_key, key, m1, m2)


def circle_spectrum(circumference, max_key: int) -> SpectrumTable:
    """Spectrum of the circle R/(c Z) in the same pi^2-key normalization.

    Eigenvalues (2 pi n / c)^2 = pi^2 * (4 n^2 / c^2) require 4/c^2 to be
    an integer for keys to be exact (covers c = 1/2 and c = 2).
    """
    c = Fraction(circumference)
    if c <= 0:
        raise UnsupportedCircumferenceError("circumference must be positive")
    if max_key < 0:
        raise ValueError("max_key must be nonnegative")
    _check_budget(max_key, "circle spectrum")
    scale = Fraction(4) / (c * c)
    if scale.denominator != 1:
        raise UnsupportedCircumferenceError(
            f"circumference {c} gives non-integral norm keys (4/c^2 = {scale})"
        )
    step = int(scale)
    entries = [(0, 1)]
    n = 1
    while step * n * n <= max_key:
        entries.append((step * n * n, 2))
        n += 1
    return SpectrumTable(max_key, tuple(entries))
