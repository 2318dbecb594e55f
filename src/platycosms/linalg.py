"""Exact rational and integer linear algebra for small (3x3) problems.

Vectors are tuples of Fraction, matrices are row tuples of such vectors.
The arithmetic helpers (dot, mat_vec, mat_mul, transpose, det3, adj3)
only add and multiply, so they serve integer matrices just as well.
mat_mul and mat_vec are unrolled for 3x3 matrices and 3-vectors only: they
take lists or tuples, always return tuples, and refuse any other shape.
Everything here is exact; no floating point enters any routine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt, lcm
from typing import Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]
Mat3 = tuple[Vec3, Vec3, Vec3]


def _frac(x) -> Fraction:
    # Fraction(f) of a Fraction f builds a copy; keep f itself
    return x if type(x) is Fraction else Fraction(x)


def vec(x, y, z) -> Vec3:
    return (_frac(x), _frac(y), _frac(z))


def mat(rows) -> Mat3:
    return tuple(vec(*row) for row in rows)  # type: ignore[return-value]


IDENTITY: Mat3 = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def vec_add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vec_sub(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def vec_scale(c, a: Vec3) -> Vec3:
    c = Fraction(c)
    return (c * a[0], c * a[1], c * a[2])


def dot(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def mat_mul(a: Mat3, b: Mat3) -> Mat3:
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return (
        (a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
        (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
        (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8),
    )


def transpose(m: Mat3) -> Mat3:
    return tuple(zip(*m))  # type: ignore[return-value]


def det3(m: Mat3) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def adj3(m):
    """Adjugate (transposed cofactor matrix): adj3(m) . m = det3(m) * I.
    Exact for integer and rational entries alike."""
    return (
        (
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            m[0][2] * m[2][1] - m[0][1] * m[2][2],
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
        ),
        (
            m[1][2] * m[2][0] - m[1][0] * m[2][2],
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            m[0][2] * m[1][0] - m[0][0] * m[1][2],
        ),
        (
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
            m[0][1] * m[2][0] - m[0][0] * m[2][1],
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ),
    )


def inv3(m: Mat3) -> Mat3:
    """Inverse via the adjugate; raises ZeroDivisionError on singular input."""
    d = Fraction(det3(m))
    return tuple(tuple(c / d for c in row) for row in adj3(m))  # type: ignore[return-value]


# nullspace and solve_rational_in_lattice have no caller in the package: the
# layer trace of perfbench/spans.py wraps them by name, and the test oracles
# use them.


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int = 3) -> list[Vec3]:
    """Basis of {v : M v = 0} for a rational matrix with `ncols` columns."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis  # type: ignore[return-value]


def fraction_to_str(f: Fraction) -> str:
    """Render as "p/q", or plain "p" when the denominator is 1."""
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# --- integer lattice algorithms -------------------------------------------


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form (nonzero rows only, positive pivots).

    Pivot columns are echeloned left to right; entries above a pivot are
    reduced into [0, pivot). The returned rows generate the same integer
    row lattice as the input.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    n = len(m)
    row = 0
    for col in range(len(m[0])):
        # clear the column below `row` by gcd steps: the least nonzero
        # entry, made positive, is the pivot and reduces the others
        while True:
            piv, least = None, 0
            for i in range(row, n):
                c = m[i][col]
                if c and (piv is None or abs(c) < least):
                    piv, least = i, abs(c)
            if piv is None:
                break
            p = m[piv] if m[piv][col] > 0 else [-a for a in m[piv]]
            m[piv] = m[row]
            m[row] = p
            done = True
            for i in range(row + 1, n):
                c = m[i][col]
                if c:
                    q = c // least
                    r = m[i] = [a - q * b for a, b in zip(m[i], p)]
                    if r[col]:
                        done = False
            if done:
                break
        if piv is not None:
            for i in range(row):
                q = m[i][col] // least
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], p)]
            row += 1
            if row == n:
                break
    # rows past the last pivot are zero
    return m[:row]


def hermite(a: Sequence[Sequence[int]]):
    """(H, U, r) for an integer m x n matrix a: the row Hermite form
    H = U·a^T of the columns of a, the unimodular n x n transform U and the
    rank r.  Rows r.. of H are zero, so rows r.. of U span the integer
    kernel of a.

    It is `hnf_rows` of the augmented rows [a^T | I], which has full rank:
    the reduction keeps all n rows, and their right-hand parts are U.
    """
    m = len(a)
    n = len(a[0])
    rows = hnf_rows([[a[i][j] for i in range(m)] + [int(j == k) for k in range(n)]
                     for j in range(n)])
    H = [row[:m] for row in rows]
    return H, [row[m:] for row in rows], sum(1 for row in H if any(row))


def solve_integer(a: Sequence[Sequence[int]], b: Sequence[int]):
    """One integer solution x of a·x = b, or None if none exists.

    With U·a^T = H, the system is H^T y = b for x = U^T y.  H is in echelon
    form, so y is read along its pivots by division; later rows are zero
    at a pivot, so a pivot that does not divide leaves a residue there,
    and any residue after the last pivot means no solution.
    """
    H, U, r = hermite(a)
    rest = list(b)
    x = [0] * len(U)
    for h, u in zip(H[:r], U):
        p = next(j for j, c in enumerate(h) if c)
        y = rest[p] // h[p]
        rest = [c - y * d for c, d in zip(rest, h)]
        x = [c + y * d for c, d in zip(x, u)]
    return None if any(rest) else x


def integer_kernel(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of {x in Z^n : a·x = 0}: the rows of U past the rank."""
    _H, U, r = hermite(a)
    return U[r:]


def solve_rational_in_lattice(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
):
    """Integer solution x of the rational system a·x = b, or None.

    Clears denominators and delegates to the integer solver `solve_integer`.
    """
    den = 1
    for row in a:
        for c in row:
            f = Fraction(c)
            den = den * f.denominator // gcd(den, f.denominator)
    for c in b:
        f = Fraction(c)
        den = den * f.denominator // gcd(den, f.denominator)
    ai = [[int(Fraction(c) * den) for c in row] for row in a]
    bi = [int(Fraction(c) * den) for c in b]
    return solve_integer(ai, bi)


# --- integer points of positive definite quadratic forms ---------------------


def form_points(H, lo: int, hi: int):
    """Every integer vector y with lo <= y^T H y <= hi, as (y, y^T H y).

    H is a positive definite integer matrix of size 0 to 3.  The first
    coordinate runs over |y_0| <= sqrt(hi * (H^-1)_00), the bound of the
    ellipsoid; of three, the second runs over the cross-section at y_0.
    The last one is solved from the quadratic, so a single shell
    (lo = hi) costs one integer square root per head and keeps only the
    heads whose discriminant is a perfect square.
    """
    n = len(H)
    if n == 0:
        if lo <= 0 <= hi:
            yield (), 0
        return
    q = H[-1][-1]
    # heads: (leading coordinates, their cross term with the last one,
    # their own part of the form)
    if n == 1:
        heads = [((), 0, 0)]
    elif n == 2:
        h00, h10 = H[0][0], H[1][0]
        bound = isqrt(hi * q // (h00 * q - h10 * h10))
        heads = (((a,), h10 * a, h00 * a * a) for a in range(-bound, bound + 1))
    else:
        h00, h01, h11, h20, h21 = H[0][0], H[0][1], H[1][1], H[2][0], H[2][1]
        # C, the minor without y_0, bounds a^2 <= hi C / det; at each a,
        # minimising over y_2 leaves the cross-section
        # (C b + B a)^2 <= q (C hi - det a^2)
        det = det3(H)
        B, C = q * h01 - h20 * h21, q * h11 - h21 * h21
        bound = isqrt(hi * C // det)

        def row(a):
            t = isqrt(q * (C * hi - det * a * a))
            return range(-((t + B * a) // C), (t - B * a) // C + 1)

        heads = (
            ((a, b), h20 * a + h21 * b, (h00 * a + 2 * h01 * b) * a + h11 * b * b)
            for a in range(-bound, bound + 1)
            for b in row(a)
        )
    if lo == hi:
        # y_last is a root of (q*y + lin)^2 = lin^2 + q*(hi - const): the
        # discriminant must be a perfect square s^2 and q must divide -lin +- s
        for head, lin, const in heads:
            disc = lin * lin + q * (hi - const)
            if disc < 0:
                continue
            s = isqrt(disc)
            if s * s != disc:
                continue
            for u in (-s, s) if s else (0,):
                y, rest = divmod(u - lin, q)
                if not rest:
                    yield head + (y,), hi
        return
    for head, lin, const in heads:
        # q * (y^T H y) = (q*y_last + lin)^2 + q*const - lin^2
        outer = lin * lin + q * (hi - const)
        if outer < 0:
            continue
        s = isqrt(outer)
        inner = lin * lin + q * (lo - const)
        r = isqrt(inner - 1) + 1 if inner > 0 else 0  # least r with r^2 >= inner
        for u_lo, u_hi in ((-s, s),) if r == 0 else ((-s, -r), (r, s)):
            for y in range(-((lin - u_lo) // q), (u_hi - lin) // q + 1):
                yield head + (y,), const + y * (q * y + 2 * lin)


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, ties to even (as `round`),
    for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def size_reduce(rows, ip) -> list:
    """Pairwise size-reduced basis of the lattice spanned by `rows` under
    the inner product `ip`, longest vector first.  Every step is
    unimodular and strictly shortens a vector, so it terminates."""
    rows = [tuple(r) for r in rows]
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(len(rows)), 2):
            mu = _round_div(ip(rows[i], rows[j]), ip(rows[j], rows[j]))
            if mu:
                rows[i] = tuple(a - mu * b for a, b in zip(rows[i], rows[j]))
                changed = True
    return sorted(rows, key=lambda r: ip(r, r), reverse=True)


def reduced_gram(basis: Sequence[Vec3]):
    """(reduced basis, G, den) for the lattice spanned by the rational rows
    `basis`: a size-reduced basis and its Gram matrix G / den, with G an
    integer matrix.  Norms of lattice points are then y^T G y / den for
    integer coordinates y, ready for `form_points`."""
    den = lcm(*(Fraction(c).denominator for row in basis for c in row))
    rows = size_reduce([[int(c * den) for c in row] for row in basis], dot)
    gram = tuple(tuple(dot(u, w) for w in rows) for u in rows)
    reduced = [tuple(Fraction(c, den) for c in row) for row in rows]
    return reduced, gram, den * den
