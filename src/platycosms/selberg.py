"""Both sides of the trace formula for platycosms.

The heat trace K(t) is evaluated two independent ways:

  spectral    sum of mult(key) * exp(-pi^2 * key * t) over the exact
              spectrum table;
  geometric   Stieltjes integral of the Gaussian kernel against the
              geodesic counting function N(s): a volume-weighted sum over
              lattice translations plus one closed-form term per twisted
              conjugacy class,

                  weight * length * exp(-length^2/4t) / (4 sqrt(pi t)),

              where weight = count/k * 1/sin^2(twist/2) is the exact
              balance-table weight.  The closed form is the elementary
              antiderivative of the cylinder-volume derivative
              dV/ds = 2 pi l s / (2 sin(theta/2))^2; tests validate it
              against adaptive quadrature.

Both evaluators carry certified truncation bounds.  Truncation constants
are implementation choices, documented inline:

  spectral    mult(key) <= shell(key) <= 8*key for key >= 1, so the
              discarded tail is below 8 * q^(K+1) * ((K+1)/(1-q) + q/(1-q)^2)
              with q = exp(-pi^2 t); the cutoff K makes that < eps/2.
  geometric   lattice points in a ball of radius R are at most
              (4 pi/3)(R + rho)^3 / covol with rho half the sum of basis
              lengths (a covering-radius bound); class counts per length
              are at most twice the translation-conjugacy index per
              holonomy family.  Both tails are summed with an explicit
              geometric-ratio majorant; the radius S makes each < eps/4.
              The lattice points within S are enumerated up to a work
              bound, LATTICE_POINT_BUDGET.

Exact arithmetic lives upstream (spectra, geodesic data); this module is
the only floating-point consumer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .errors import CutoffBudgetError, abridged
from .euclid import Lattice, PlatycosmPresentation, preset, translation_lattice, volume
from .geodesics import _class_table, twist_factor, twisted_classes, weight
from .linalg import dot, form_points, fraction_to_str, reduced_gram
from .spectrum import SPECTRAL_KEY_BUDGET, circle_spectrum, spectrum_table

__all__ = [
    "HeatTraceConfig",
    "HeatTrace",
    "CountingSample",
    "twisted_cylinder_volume",
    "cylinder_heat_integral",
    "lattice_count",
    "spectral_heat_trace",
    "geometric_heat_trace",
    "circle_heat_trace",
    "exercise_identity_sides",
    "exercise_identity_residual",
    "counting_function",
    "counting_function_csv",
    "heat_trace_rows",
    "heat_trace_csv",
]

GEOMETRIC_RADIUS_BUDGET = 64.0

# Work bound of one lattice enumeration (`lattice_count`, and so
# `counting_function`, and `geometric_heat_trace`): the number of lattice
# points visited, counted on the enumeration itself, since the count in a
# ball grows as 1/covolume and a space file may give a lattice of any
# fineness.  Every preset stays under it to the whole geometric radius
# budget: the cubical torus, the finest, has 1,097,917 points to radius 64
# (reached by `heat-trace --space cubical_torocosm --t 34`), Tetra, Didi
# and the two-tall torus 548,685.  The tests, the golden CLI cases and the
# benchmark reach at most that 1,097,917.  A refused heat trace or count
# stops after about 0.5 s (Python 3.11, one core of a 2-vCPU machine).
LATTICE_POINT_BUDGET = 1_200_000


@dataclass(frozen=True)
class HeatTraceConfig:
    """Evaluation time, target accuracy, and (optional) explicit cutoffs.

    When a cutoff is omitted it is derived per presentation from the tail
    bounds above; the cutoff actually used is reported on the result.
    """

    t: float
    eps: float
    spectral_cutoff: Optional[int] = None
    geometric_cutoff: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.t < math.inf:
            raise ValueError("heat time t must be positive and finite")
        if not 0 < self.eps < math.inf:
            raise ValueError("target accuracy eps must be positive and finite")
        # both evaluators weigh key k by exp(-pi^2 t k): an infinite pi^2 t
        # makes the key-0 term exp(-inf * 0), a NaN
        if math.pi * math.pi * self.t == math.inf:
            raise CutoffBudgetError(f"heat time t = {self.t:g} is outside the float range")


@dataclass(frozen=True)
class HeatTrace:
    """Evaluated trace with its certified truncation bound and the cutoff
    (spectral key bound or geometric radius) that produced it."""

    value: float
    tail_bound: float
    cutoff: float


def twisted_cylinder_volume(height, twist, s) -> float:
    """Volume of a cylinder of height h whose side segments are stretched
    to twisted height s by turning the top through `twist` radians."""
    h = float(height)
    theta = float(twist)
    s = float(s)
    if h <= 0:
        raise ValueError("cylinder height must be positive")
    if not 0 < theta <= math.pi:
        raise ValueError("twist must lie in (0, pi] (untwisted cylinders "
                         "are not cylinder terms)")
    if s < h:
        return 0.0
    return h * math.pi * (s * s - h * h) / (2 * math.sin(theta / 2)) ** 2


def cylinder_heat_integral(length, twist_over_pi, t: float, upper=None) -> float:
    """Closed form of the heat-kernel mass of one cylinder term,

        int_l^U (4 pi t)^(-3/2) exp(-s^2/4t) dV_{l,theta}(s)
            = l * f * (exp(-l^2/4t) - exp(-U^2/4t)) / (8 sqrt(pi t)),

    with f = 1/sin^2(theta/2); upper=None integrates to infinity."""
    l = float(length)
    f = float(twist_factor(Fraction(twist_over_pi)))
    top = 0.0 if upper is None else math.exp(-float(upper) ** 2 / (4 * t))
    return l * f * (math.exp(-l * l / (4 * t)) - top) / (8 * math.sqrt(math.pi * t))


def lattice_count(L: Lattice, s) -> int:
    """Exact number of lattice vectors of Euclidean norm <= s; refused past
    LATTICE_POINT_BUDGET = 1,200,000 of them (the presets reach 1,097,917
    to the geometric radius budget 64)."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("radius must be nonnegative")
    return _on_lattice_points(L, s, lambda points, den: sum(1 for _ in points))


def _on_lattice_points(L: Lattice, radius: Fraction, consume):
    """consume(points, den) on the vectors v of L with |v| <= radius, as
    (y, n) with |v|^2 = n / den.  The enumeration is cut after
    LATTICE_POINT_BUDGET points, and refused (`CutoffBudgetError`) when
    it has more."""
    _, gram, den = reduced_gram(L.basis)
    points = form_points(gram, 0, math.floor(radius * radius * den))
    result = consume(islice(points, LATTICE_POINT_BUDGET), den)
    if next(points, None) is not None:
        raise CutoffBudgetError(
            f"lattice enumeration to radius {abridged(radius)} visits more than "
            f"{LATTICE_POINT_BUDGET} points"
        )
    return result


# --- certified tail machinery -------------------------------------------------


def _sum_with_ratio_majorant(term, ratio, max_terms: int = 100_000) -> float:
    """Upper bound for sum_{n>=0} term(n) given ratio(n) >= term(n+1)/term(n)
    with ratio nonincreasing; once ratio < 1/2 the rest is dominated by a
    geometric series."""
    total = 0.0
    n = 0
    while True:
        r = ratio(n)
        if r < 0.5:
            return total + term(n) / (1.0 - r)
        total += term(n)
        n += 1
        if n > max_terms:
            raise CutoffBudgetError("tail majorant did not enter geometric decay")


def _spectral_tail(K: int, t: float) -> float:
    """Bound on sum_{key>K} mult(key) e^(-pi^2 key t), using mult <= 8*key."""
    q = math.exp(-math.pi * math.pi * t)
    if q == 1.0:
        return math.inf  # 1 - q rounds to 0: no finite bound at this t
    qk = math.exp(-math.pi * math.pi * t * (K + 1))
    return 8.0 * qk * ((K + 1) / (1.0 - q) + q / (1.0 - q) ** 2)


def _spectral_cutoff(t: float, eps: float) -> int:
    K = 1
    while _spectral_tail(K, t) >= eps / 2:
        K *= 2
        if K > SPECTRAL_KEY_BUDGET:
            raise CutoffBudgetError(
                f"spectral cutoff exceeds {SPECTRAL_KEY_BUDGET} keys; "
                "increase t or eps"
            )
    lo, hi = K // 2, K
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _spectral_tail(mid, t) < eps / 2:
            hi = mid
        else:
            lo = mid
    return hi


def _lattice_tail(L: Lattice, S: float, t: float) -> float:
    """Bound on Vol-weighted kernel mass of lattice points beyond radius S
    (the (4 pi t)^(-3/2) prefactor and Vol are applied by the caller)."""
    covol = float(L.covolume())
    rho = sum(math.sqrt(float(dot(b, b))) for b in L.basis) / 2.0

    def count_bound(radius: float) -> float:
        return (4 * math.pi / 3) * (radius + rho) ** 3 / covol

    def term(n: int) -> float:
        return count_bound(S + n + 1) * math.exp(-((S + n) ** 2) / (4 * t))

    def ratio(n: int) -> float:
        grow = ((S + n + 2 + rho) / (S + n + 1 + rho)) ** 3
        return grow * math.exp(-(2 * (S + n) + 1) / (4 * t))

    return _sum_with_ratio_majorant(term, ratio)


def _cylinder_tail(P: PlatycosmPresentation, S: float, t: float) -> float:
    """Bound on the cylinder terms of classes longer than S.

    Each holonomy family contributes lengths on an arithmetic progression
    with the family's spacing and at most 2*index translation-conjugacy
    classes per length (inversion/conjugation folding only reduces that);
    x*exp(-x^2/4t) is decreasing beyond sqrt(2t) <= S."""
    total = 0.0
    for fam in _class_table(P).fams:
        step = float(fam.spacing)
        f = float(twist_factor(fam.twist_over_pi))
        per_length = 2.0 * fam.index * f / (4 * math.sqrt(math.pi * t))

        def term(n: int) -> float:
            x = S + n * step
            return per_length * x * math.exp(-x * x / (4 * t))

        def ratio(n: int) -> float:
            x = S + n * step
            return ((x + step) / x) * math.exp(-(2 * x * step + step * step) / (4 * t))

        total += _sum_with_ratio_majorant(term, ratio)
    return total


def _kernel_prefactor(vol: Fraction, t: float) -> float:
    """vol / (4 pi t)^(3/2), the heat kernel's weight on lattice terms;
    refused when (4 pi t)^(3/2) leaves the normal floats or the quotient
    is not finite, since no certified value exists there."""
    try:
        scale = (4 * math.pi * t) ** 1.5
    except OverflowError:
        scale = math.inf
    prefactor = float(vol) / scale if scale >= sys.float_info.min else math.inf
    if not 0.0 < prefactor < math.inf:
        raise CutoffBudgetError(
            f"geometric heat trace at t = {t:g} is outside the float range"
        )
    return prefactor


def _geometric_tails(
    P: PlatycosmPresentation, S: float, t: float, lat: Lattice, vol: Fraction
):
    tails = (_kernel_prefactor(vol, t) * _lattice_tail(lat, S, t), _cylinder_tail(P, S, t))
    if not all(math.isfinite(tail) for tail in tails):
        raise CutoffBudgetError(f"geometric tail bound at t = {t:g} is not finite")
    return tails


def _geometric_cutoff(
    P: PlatycosmPresentation, t: float, eps: float, lat: Lattice, vol: Fraction
) -> float:
    S = max(1.0, 2.0 * math.sqrt(2 * t))
    while S <= GEOMETRIC_RADIUS_BUDGET:
        jump_tail, cyl_tail = _geometric_tails(P, S, t, lat, vol)
        if jump_tail < eps / 4 and cyl_tail < eps / 4:
            return S
        S += 0.5
    raise CutoffBudgetError(
        f"geometric radius at t = {t:g} exceeds {GEOMETRIC_RADIUS_BUDGET}; "
        "decrease t or increase eps"
    )


# --- the two trace evaluators -------------------------------------------------


def spectral_heat_trace(P: PlatycosmPresentation, cfg: HeatTraceConfig) -> HeatTrace:
    """K(t) from the exact spectrum, truncated at a certified key cutoff."""
    K = cfg.spectral_cutoff
    if K is None:
        K = _spectral_cutoff(cfg.t, cfg.eps)
    if K > SPECTRAL_KEY_BUDGET:
        raise CutoffBudgetError("explicit spectral cutoff exceeds the budget")
    table = spectrum_table(P, K)
    pi2t = math.pi * math.pi * cfg.t
    value = math.fsum(m * math.exp(-pi2t * k) for k, m in table.entries)
    return HeatTrace(value, _spectral_tail(K, cfg.t), float(K))


def geometric_heat_trace(P: PlatycosmPresentation, cfg: HeatTraceConfig) -> HeatTrace:
    """K(t) from geometry: lattice image terms within a certified radius
    plus closed-form cylinder terms of all classes enumerated to it."""
    lat, vol = translation_lattice(P), volume(P)
    S = cfg.geometric_cutoff
    if S is None:
        S = _geometric_cutoff(P, cfg.t, cfg.eps, lat, vol)
    if S > GEOMETRIC_RADIUS_BUDGET:
        raise CutoffBudgetError("explicit geometric cutoff exceeds the budget")
    # round the radius up to the half-integer grid: enumeration bounds are
    # exact rationals and the cache is shared across nearby configs
    S_frac = Fraction(math.ceil(2 * S), 2)
    t = cfg.t
    prefactor = _kernel_prefactor(vol, t)
    # |lam|^2 = n / den exactly, and int / int is correctly rounded
    jump = prefactor * _on_lattice_points(lat, S_frac, lambda points, den: math.fsum(
        math.exp(-n / den / (4 * t)) for _, n in points))
    # included classes integrate to infinity (no truncation error); the
    # tail bound covers only classes longer than S_frac
    cylinders = math.fsum(
        float(weight(c)) * float(c.length)
        * math.exp(-float(c.length) ** 2 / (4 * t)) / (4 * math.sqrt(math.pi * t))
        for c in twisted_classes(P, S_frac)
    )
    jump_tail, cyl_tail = _geometric_tails(P, float(S_frac), t, lat, vol)
    return HeatTrace(jump + cylinders, jump_tail + cyl_tail, float(S_frac))


def circle_heat_trace(circumference, cfg: HeatTraceConfig) -> HeatTrace:
    """Heat trace of the circle of the given circumference, same
    certified-truncation treatment (multiplicity 2 per positive mode)."""
    c = Fraction(circumference)
    t, eps = cfg.t, cfg.eps
    circle_spectrum(c, 0)  # validates the circumference up front
    step = int(Fraction(4) / (c * c))

    def tail(N: int) -> float:
        first = 2 * math.exp(-math.pi * math.pi * step * (N + 1) ** 2 * t)
        ratio = math.exp(-math.pi * math.pi * step * (2 * N + 3) * t)
        return math.inf if ratio == 1.0 else first / (1.0 - ratio)

    N = 1
    while tail(N) >= eps / 2:
        N += 1
        if step * N * N > SPECTRAL_KEY_BUDGET:
            raise CutoffBudgetError("circle cutoff exceeds the budget")
    table = circle_spectrum(c, step * N * N)
    pi2t = math.pi * math.pi * t
    value = math.fsum(m * math.exp(-pi2t * k) for k, m in table.entries)
    return HeatTrace(value, tail(N), float(step * N * N))


def exercise_identity_sides(t: float, eps: float) -> tuple[float, float, float]:
    """The two sides of the four-trace identity relating tetra, its
    four-fold torus cover, and the circles of circumference 1/2 and 2.

    Returns (lhs, rhs, combined tail bound)."""
    cfg = HeatTraceConfig(t, eps)
    k_tetra = spectral_heat_trace(preset("tetra"), cfg)
    k_cover = spectral_heat_trace(preset("two_tall"), cfg)
    k_half = circle_heat_trace(Fraction(1, 2), cfg)
    k_two = circle_heat_trace(Fraction(2), cfg)
    lhs = k_tetra.value - k_cover.value / 4
    rhs = k_half.value - k_two.value / 4
    bound = (
        k_tetra.tail_bound
        + k_cover.tail_bound / 4
        + k_half.tail_bound
        + k_two.tail_bound / 4
    )
    return lhs, rhs, bound


def exercise_identity_residual(t: float, eps: float) -> float:
    """lhs - rhs of the identity; vanishes up to the certified tails."""
    lhs, rhs, _ = exercise_identity_sides(t, eps)
    return lhs - rhs


# --- the counting function N(s) ----------------------------------------------


@dataclass(frozen=True)
class CountingSample:
    """N(s) split into its exact ingredients: the volume-weighted lattice
    count (jump part) and the cylinder mass divided by pi (continuous
    part), both exact rationals."""

    s: Fraction
    jump: Fraction
    cylinder_over_pi: Fraction

    @property
    def n_jump(self) -> float:
        return float(self.jump)

    @property
    def n_cylinder(self) -> float:
        return math.pi * float(self.cylinder_over_pi)

    @property
    def n_total(self) -> float:
        return self.n_jump + self.n_cylinder


def counting_function(P: PlatycosmPresentation, s) -> CountingSample:
    """Exact evaluation of the geodesic counting function at radius s."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("radius must be nonnegative")
    jump = volume(P) * lattice_count(translation_lattice(P), s)
    cyl = Fraction(0)
    if s > 0:
        for c in twisted_classes(P, s):
            # 2 * (count/k) * V_{l,theta}(s)/pi with V/pi = l(s^2-l^2)f/4
            cyl += weight(c) * c.length * (s * s - c.length * c.length) / 2
    return CountingSample(s, jump, cyl)


def counting_function_csv(P: PlatycosmPresentation, s_values) -> str:
    lines = ["s,N_jump,N_cylinder,N_total"]
    for s in s_values:
        sample = counting_function(P, s)
        lines.append(
            f"{fraction_to_str(sample.s)},{sample.n_jump:.17g},"
            f"{sample.n_cylinder:.17g},{sample.n_total:.17g}"
        )
    return "\n".join(lines) + "\n"


# --- tabulated output ----------------------------------------------------------


def heat_trace_rows(P: PlatycosmPresentation, t_values, eps: float):
    """(t, spectral, geometric, abs_diff, combined bound) per time."""
    rows = []
    for t in t_values:
        cfg = HeatTraceConfig(t, eps)
        sp = spectral_heat_trace(P, cfg)
        ge = geometric_heat_trace(P, cfg)
        rows.append((t, sp.value, ge.value, abs(sp.value - ge.value),
                     sp.tail_bound + ge.tail_bound))
    return rows


def heat_trace_csv(P: PlatycosmPresentation, t_values, eps: float) -> str:
    lines = ["t,spectral,geometric,abs_diff,bound"]
    for t, sp, ge, diff, bound in heat_trace_rows(P, t_values, eps):
        lines.append(f"{t:.17g},{sp:.17g},{ge:.17g},{diff:.17g},{bound:.17g}")
    return "\n".join(lines) + "\n"
