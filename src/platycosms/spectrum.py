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

Cost of a table up to key K.  A table is a function of m, Q, K and the
twisted sums alone, so two spaces on which these agree (Tetra and Didi:
m = 4, Q = diag(4, 4, 1), equal twisted sums) share one assembly:

  twisted terms   per space, the points of the integer fixed sublattice
                  ker(Bg^T - 1) in the ball: O(sqrt K) walked directly
                  along the line of a screw, O(K) on the plane of a
                  glide, kept as the sorted nonzero sums of each key;
  assembly        once per (m, Q, K, twisted sums), summed in a list
                  indexed by key 0..K:
    identity term   shell sizes for every key at once.  When Q is
                    diagonal they are the product of the three theta
                    series sum_y x^(q y^2), each held in one int with a
                    fixed-width slot per key: the densest series starts
                    the product and each other one adds ~sqrt(K/q)
                    shifted copies of it, O(K^1.5) machine words in all,
                    then one unpacking.  Otherwise an enumeration of the
                    ~(4pi/3)K^1.5/sqrt(det Q) points of the ball in Q
                    coordinates;
    multiplicities  a few passes of builtins over the K + 1 sums: no
                    imaginary or negative sum, and the sums total m
                    times their quotients by m; a key-ordered loop runs
                    only when a check fails, to name the least bad key;
  self-check      per space, `multiplicity` at the keys 0, 1 and the
                  largest nonempty shells at or below K//2 and K, read
                  from the identity term (an empty shell would compare 0
                  with 0): O(K) for the four together.  The shell walk
                  depends on Q and the key alone, so the second space of
                  a pair reuses the first one's; the rep matrices and
                  phases applied to it are its own.

The assembly memo holds 2 entries and the probe-shell memo 4: enough for
the two sides of one comparison, too few to carry work from one
comparison into the next.

`multiplicity` evaluates one key independently of the table's fixed-line
data.  `linalg.half_shell` walks one point of each pair +-x of the shell:
the O(K) (a, b) heads of half the ellipsoid's cross-sections, keeping a
head only when the discriminant of the quadratic in the last coordinate
is a perfect square, with one integer square root per head.  To each
point it applies every rep's full matrix and phase, testing M x = x in
plain integer arithmetic; a rep whose matrix is I and whose phases are
0, the identity, adds one per point.  x and -x are fixed by the same
reps and have conjugate phases, so the shell's sum is twice the real
part of the half sum, plus the origin's at key 0.

Frequencies are exact Cartesian vectors, with no grid: `shell` lists the
vectors of one key of any dual lattice whose 4*Gram is integral, and
`orbit_dims` takes any set of dual vectors that the holonomy maps to
itself, in the reduced coordinates x = U^-T y of their coordinates y on
the basis dual to the lattice basis.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, count, repeat
from math import isqrt, prod
from operator import floordiv, ge, index
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
    Vec3, adj3, det3, dot, form_points, half_shell, inv3, mat_mul, mat_vec,
    reduced_gram, size_reduce, transpose,
)

__all__ = [
    "SpectrumTable",
    "IsospectralVerdict",
    "dual_lattice",
    "shell",
    "multiplicity",
    "orbit_dims",
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


@dataclass(frozen=True)
class SpectrumTable:
    """Sparse exact spectrum: (key, multiplicity) pairs for keys <= max_key.

    Absent keys have multiplicity zero.  Eigenvalues are pi^2 * key.
    """

    max_key: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        flat = list(chain.from_iterable(entries))
        # pairs of ints, rebuilt only when some entry is not one already
        if not (
            {*map(type, entries)} <= {tuple}
            and {*map(len, entries)} <= {2}
            and {*map(type, flat)} <= {int}
        ):
            try:
                entries = tuple((index(k), index(m)) for k, m in entries)
            except TypeError as exc:
                raise ValueError(f"entries must be pairs of integers: {exc}") from None
            flat = list(chain.from_iterable(entries))
        object.__setattr__(self, "entries", entries)
        keys, mults = flat[::2], flat[1::2]
        # strictly increasing keys are sorted and distinct, and lie between
        # the first key and the last
        if any(map(ge, keys, keys[1:])):
            raise ValueError("entries must be sorted by key without repeats")
        if keys and (keys[0] < 0 or keys[-1] > self.max_key):
            raise ValueError("entry key out of range")
        if mults and min(mults) <= 0:
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


def _key_form(gram, num: int, den: int) -> tuple[tuple[int, ...], ...]:
    """Q = num * gram / den in integers, the form 4 x Gram of norm keys on a
    reduced dual basis; refused when it is not integral."""
    if any(num * c % den for row in gram for c in row):
        raise UnsupportedGeometryError(
            "4 x Gram matrix of the dual lattice is not integral, so norm keys "
            "are not integers"
        )
    return tuple(tuple(num * c // den for c in row) for row in gram)


def shell(Lstar: Lattice, key: int) -> tuple[Vec3, ...]:
    """All vectors of Lstar with norm key exactly `key`, as exact Cartesian
    vectors, sorted and closed under negation."""
    if key < 0:
        raise ValueError("norm keys are nonnegative")
    _check_budget(key, "shell")
    basis, gram, den = reduced_gram(Lstar.basis)
    points = half_shell(_key_form(gram, 4, den), key)
    points += [(-x0, -x1, -x2) for x0, x1, x2 in points] if key else [(0, 0, 0)]
    return tuple(sorted(
        tuple(sum(xi * e[k] for xi, e in zip(x, basis)) for k in range(3)) for x in points
    ))


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
    # U^-T for the reduced basis U of Lstar on the basis dual to the
    # lattice basis: it maps coordinates on that basis to reduced ones
    U_inv_t: tuple[tuple[int, ...], ...]
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
    matrix G = basis basis^T / scale^2, size-reduced on the integer
    matrix adj(G).  On reduced coordinates B^T is M = U^-T A^T U^T, so its
    fixed sublattice ker(M - 1) is U^-T times the rotation's kernel
    ker(A^T - 1) that the integer form keeps."""
    form = P.form
    gram = mat_mul(form.basis, transpose(form.basis))
    gram_adj, gram_det = adj3(gram), det3(gram)
    U, Q = size_reduce(gram_adj)
    Q = _key_form(Q, 4 * form.scale * form.scale, gram_det)
    # U is unimodular: U^-1 = det(U) adj(U)
    det_U, U_t = det3(U), transpose(U)
    U_inv_t = transpose(tuple(tuple(det_U * c for c in row) for row in adj3(U)))

    def ip(u, w):
        return dot(u, mat_vec(Q, w))

    actions = []
    for i, (A, c) in enumerate(zip(form.rots, form.trans)):
        M = mat_mul(mat_mul(U_inv_t, transpose(A)), U_t)
        phase = tuple(4 * x for x in mat_vec(U, c))
        fixed = [mat_vec(U_inv_t, f) for f in form.fixed[i - 1]] if i else []
        if len(fixed) > 1:
            # a glide plane: a size-reduced basis of it; a line needs none
            V, fixed_gram = size_reduce([[ip(u, w) for w in fixed] for u in fixed])
            fixed = [tuple(sum(v * f[k] for v, f in zip(row, fixed)) for k in range(3))
                     for row in V]
        else:
            fixed_gram = tuple((ip(f, f),) for f in fixed)
        actions.append(_RepAction(
            M=M,
            phase=phase,
            fixed_gram=fixed_gram,
            fixed_phase=tuple(dot(f, phase) for f in fixed),
        ))
    return _DualData(len(P.holonomy_reps), U_inv_t, Q, form.den, tuple(actions))


def _quarter_turns(num: int, den: int) -> int:
    """r in 0..3 with phase i^r = i^(num/den); raises unless num/den is an
    integer (phases outside the fourth roots of unity are out of reach)."""
    if num % den:
        raise UnsupportedGeometryError("character phase is not a fourth root of unity")
    return (num // den) & 3


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_RE = (1, 0, -1, 0)
_IM = (0, 1, 0, -1)


def _character_sum(data: _DualData, points) -> tuple[int, int]:
    """sum over points x and reps g with Mg x = x of the phase, as (re, im)."""
    den = data.den
    points = list(points)
    re = im = 0
    for act in data.actions:
        if act.M == _IDENTITY and not any(act.phase):
            # the identity fixes every point with phase 1
            re += len(points)
            continue
        # the rep's full matrix and phase as plain ints, applied to every point
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = act.M
        p0, p1, p2 = act.phase
        for x0, x1, x2 in points:
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


# Sized for one comparison: the four probe keys of one Q.  Both spaces of an
# isospectral pair with the same Q walk each probe shell once; a larger
# memo would carry shells from one comparison into the next.
@lru_cache(maxsize=4)
def _probe_shell(gram, key: int) -> tuple[tuple[int, int, int], ...]:
    """`half_shell(gram, key)`, which depends on nothing but Q and the key."""
    return tuple(half_shell(gram, key))


def multiplicity(P: PlatycosmPresentation, key: int) -> int:
    """Exact dimension of the holonomy-invariant subspace of the key shell."""
    if key < 0:
        raise ValueError("norm keys are nonnegative")
    _check_budget(key, "multiplicity")
    data = _dual_action(P)
    # x and -x are fixed by the same reps with conjugate phases, so the
    # shell's sum is twice the real part of the sum over one of each pair,
    # plus the origin's at key 0
    re, _ = _character_sum(data, _probe_shell(data.gram, key))
    re *= 2
    if not key:
        re += _character_sum(data, ((0, 0, 0),))[0]
    return _finalize(key, re, 0, data.m)


def orbit_dims(P: PlatycosmPresentation, frequencies) -> int:
    """Dimension of the holonomy-invariant span of the Fourier modes with
    these frequencies: exact Cartesian vectors of the dual lattice, taken
    as a set that every holonomy rep maps to itself (0 for no vectors)."""
    data = _dual_action(P)
    form = P.form
    points = set()
    for v in frequencies:
        # y = L v on the basis dual to the lattice basis L = basis / scale
        y = [Fraction(dot(row, v)) / form.scale for row in form.basis]
        if any(c.denominator != 1 for c in y):
            raise ValueError(f"frequency {v} is not in the dual lattice")
        points.add(mat_vec(data.U_inv_t, [int(c) for c in y]))
    # without closure the character sum is not the trace of a projector
    for act in data.actions:
        if any(mat_vec(act.M, x) not in points for x in points):
            raise ValueError("the holonomy does not map the frequencies to themselves")
    re, im = _character_sum(data, points)
    key = max((dot(x, mat_vec(data.gram, x)) for x in points), default=0)
    return _finalize(key, re, im, data.m)


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
    # at max_key = K, each held in one int whose slot k of `width` bytes is
    # the coefficient of x^k.  The width holds every value a slot k <= K
    # takes, so no slot carries into the next:
    # * with q_1 <= q_2 <= q_3, the coefficient of x^k in the product counts
    #   the y with q_1 y_1^2 + q_2 y_2^2 + q_3 y_3^2 = k.  Fixing y_2 and
    #   y_3, |y_i| <= sqrt(K / q_i), leaves at most two values of y_1, so
    #   it is at most bound = 2 (2 isqrt(K/q_2) + 1)(2 isqrt(K/q_3) + 1);
    # * every partial product, and every partial sum of the shifted adds
    #   below, counts a subset of those y at slot k: a sub-sum of the
    #   nonnegative terms of the final coefficient;
    # * a carry out of a slot above K moves only up, into the part the mask
    #   drops.
    # Under the key budget the bound stays below 2^32.
    qs = sorted((gram[0][0], gram[1][1], gram[2][2]))
    bound = 2 * prod(2 * isqrt(max_key // q) + 1 for q in qs[1:])
    width = 1
    while bound >> 8 * width:
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


def _twisted_sums(data: _DualData, max_key: int) -> tuple[tuple[int, int, int], ...]:
    """The twisted terms up to max_key, summed over the reps g != 1: one
    (key, re, im) for each key with a nonzero sum, in key order."""
    den = data.den
    re, im = {0: 0}, {}
    for act in data.actions[1:]:
        if len(act.fixed_gram) == 1:
            # a screw line: the points y and -y share the key q y^2 and have
            # conjugate phases i^(+-p y / den), so they add 2 Re i^(p y / den)
            q, p = act.fixed_gram[0][0], act.fixed_phase[0]
            re[0] += 1
            n = isqrt(max_key // q)
            if n:
                step = _quarter_turns(p, den)
                for y in range(1, n + 1):
                    key = q * y * y
                    re[key] = re.get(key, 0) + 2 * _RE[step * y & 3]
            continue
        for y, key in form_points(act.fixed_gram, 0, max_key):
            r = _quarter_turns(sum(a * b for a, b in zip(act.fixed_phase, y)), den)
            re[key] = re.get(key, 0) + _RE[r]
            im[key] = im.get(key, 0) + _IM[r]
    sums = ((key, r, im.get(key, 0)) for key, r in sorted(re.items()))
    return tuple(t for t in sums if t[1] or t[2])


# Sized for one comparison, as `_probe_shell` is.
@lru_cache(maxsize=2)
def _assembly(m: int, gram, max_key: int, twisted):
    """(table, probes) of every space with holonomy order m, dual form
    Q = gram and these twisted sums: the identity term, the passes over
    the sums and the multiplicities, from these four inputs alone, with
    the (key, multiplicity) pairs each space's probes must reproduce."""
    re = _shell_sizes(gram, max_key)
    # the self-check keys: 0, 1 and the largest nonempty shells at or below
    # K//2 and K (key 0 is never empty)
    probe_keys = sorted({0, 1, *(next(k for k in range(top, -1, -1) if re[k])
                                 for top in (max_key // 2, max_key))})
    for key, r, _ in twisted:
        re[key] += r
    im = {key: i for key, _, i in twisted if i}
    sums = list(compress(re, re))
    mults = list(map(floordiv, sums, repeat(m)))
    # with no imaginary or negative sum, each sum r is at least m (r // m),
    # so the totals agree exactly when every sum is a multiple of m
    if im or min(re) < 0 or sum(sums) != m * sum(mults):
        # in key order, so the error names the least bad key
        for key, r in enumerate(re):
            i = im.get(key, 0)
            if i or r < 0 or r % m:
                _finalize(key, r, i, m)  # raises
    table = SpectrumTable(max_key, tuple(zip(compress(count(), re), mults)))
    return table, tuple((key, re[key] // m) for key in probe_keys if key <= max_key)


@lru_cache(maxsize=CACHE_SIZE)
def _table(P: PlatycosmPresentation, max_key: int) -> SpectrumTable:
    data = _dual_action(P)
    table, probes = _assembly(data.m, data.gram, max_key, _twisted_sums(data, max_key))
    # spot-check the decomposition against independent per-key shell sums
    # of this space
    for key, mult in probes:
        if multiplicity(P, key) != mult:
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
