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
from itertools import accumulate, compress, permutations
from math import gcd, isqrt, lcm
from operator import eq, mul
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
    n, width = len(m), len(m[0])
    row = 0
    for col in range(width):
        # rows from `row` on are zero left of `col`, so the pivot row is
        # too, and every step changes only the columns from `col` on
        tail = range(col, width)
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
            p = m[piv]
            if p[col] < 0:
                for k in tail:
                    p[k] = -p[k]
            m[piv] = m[row]
            m[row] = p
            done = True
            for r in m[row + 1:]:
                c = r[col]
                if c:
                    q = c // least
                    for k in tail:
                        r[k] -= q * p[k]
                    if r[col]:
                        done = False
            if done:
                break
        if piv is not None:
            for r in m[:row]:
                q = r[col] // least
                if q:
                    for k in tail:
                        r[k] -= q * p[k]
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


def kernel3(a: Sequence[Sequence[int]]) -> list[list[int]]:
    """`integer_kernel` of an integer 3x3 matrix, with no reduction when
    its rank is 2.  The kernel is then the line of the cross product c of
    two independent rows, orthogonal to the third row since det a = c .
    row = 0.  Its basis vector is c over its content, first nonzero entry
    positive, the one row `integer_kernel` gives: the reduction carries on
    past the rank into the identity columns, whose pivot it makes
    positive.  Any other rank takes `integer_kernel`."""
    r0, r1, r2 = a
    for u, v, w in ((r0, r1, r2), (r0, r2, r1), (r1, r2, r0)):
        c = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if any(c):
            if c[0] * w[0] + c[1] * w[1] + c[2] * w[2]:
                break  # rank 3
            content = gcd(*c)
            if next(x for x in c if x) < 0:
                content = -content
            return [[x // content for x in c]]
    return integer_kernel(a)


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
    The last one runs over the one or two intervals the shell
    lo <= y^T H y <= hi leaves of its line, found with two integer square
    roots per head.  `half_shell` walks a single shell of a 3x3 form.
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


def half_shell(H, key: int) -> list[tuple[int, int, int]]:
    """One point of each pair +-y of nonzero integer vectors with
    y^T H y = key, for a positive definite integer 3x3 matrix H: the
    points with y_0 > 0, y_0 = 0 < y_1, or y_0 = y_1 = 0 < y_2.

    The heads (a, b) = (y_0, y_1) run over the half a >= 0 of the
    ellipse that bounds them, row by row as in `form_points`, and the
    head (0, 0) keeps only its positive root.  With lin = H_20 a + H_21 b
    and q = H_22, y_2 is a root of (q y_2 + lin)^2 = disc, where disc is
    q (key - H_00 a^2 - 2 H_01 a b - H_11 b^2) + lin^2.  Along a row disc
    is a quadratic in b, so a row's values are running sums of an
    arithmetic sequence.  Every disc lies in 0..q key, so each head costs
    one lookup in a table of the squares up to q key, all in builtins;
    when the shell has fewer heads than the table has squares, each head
    takes an integer square root instead.  A head yields points only when
    disc is a perfect square s^2 and q divides -lin +- s.
    """
    points = []
    if not key:
        return points
    (h00, h01, h02), (_, h11, h12), (_, _, q) = H
    det = det3(H)
    # disc = e0 + e1 b - C b^2 on row a, and within the row bound
    # (C b + B a)^2 <= q (C key - det a^2) it is nonnegative, since
    # C disc = q (C key - det a^2) - (C b + B a)^2 <= q C key: every disc
    # lies in 0..q key, where a table of the squares up to q key holds each
    # root
    B, C = q * h01 - h02 * h12, q * h11 - h12 * h12
    rows = []
    for a in range(isqrt(key * C // det) + 1):
        t = isqrt(q * (C * key - det * a * a))
        lo = -((t + B * a) // C) if a else 0
        n = (t - B * a) // C + 1 - lo
        if n > 0:
            rows.append((a, lo, n))
    # a square costs the table about 115 ns to hold and saves a head about
    # 100 ns of root, product and compare, so the table is built only for a
    # shell with more heads than squares; a key near the least ones of a
    # fine form, whose q key is large, builds none
    top = isqrt(q * key)
    squares = {s * s: s for s in range(top + 1)} if top < sum(n for _, _, n in rows) else None
    for a, lo, n in rows:
        lin_a = h02 * a
        e0 = lin_a * lin_a + q * (key - h00 * a * a)
        e1 = 2 * (lin_a * h12 - q * h01 * a)
        step = e1 - C * (2 * lo + 1)
        discs = list(accumulate(range(step, step - 2 * C * (n - 1), -2 * C),
                                initial=e0 + (e1 - C * lo) * lo))
        if squares is None:
            roots = list(map(isqrt, discs))
            hits = map(eq, map(mul, roots, roots), discs)
        else:
            hits = map(squares.__contains__, discs)
        for i in compress(range(n), hits):
            s = roots[i] if squares is None else squares[discs[i]]
            b = lo + i
            lin = lin_a + h12 * b
            if not (s - lin) % q:
                points.append((a, b, (s - lin) // q))
            if s and (a or b) and not (s + lin) % q:
                points.append((a, b, -(s + lin) // q))
    return points


def _round_div(n: int, d: int) -> int:
    """n / d rounded to the nearest integer, ties to even (as `round`),
    for d > 0."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def size_reduce(gram):
    """(U, U gram U^T) for a pairwise size-reduced basis U of the lattice
    with the integer Gram matrix `gram`, longest vector first, U an
    integer matrix of determinant +-1.  Subtracting mu times basis vector
    j from vector i is a row step on U and on the Gram matrix, then a
    column step on the latter.  Every step is unimodular and strictly
    shortens a vector, so it terminates."""
    n = len(gram)
    G = [list(row) for row in gram]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i, j in permutations(range(n), 2):
            mu = _round_div(G[i][j], G[j][j])
            if mu:
                U[i] = [a - mu * b for a, b in zip(U[i], U[j])]
                G[i] = [a - mu * b for a, b in zip(G[i], G[j])]
                for row in G:
                    row[i] -= mu * row[j]
                changed = True
    order = sorted(range(n), key=lambda i: G[i][i], reverse=True)
    return (tuple(tuple(U[i]) for i in order),
            tuple(tuple(G[i][j] for j in order) for i in order))


def reduced_gram(basis: Sequence[Vec3]):
    """(reduced basis, G, den) for the lattice spanned by the rational rows
    `basis`: a size-reduced basis and its Gram matrix G / den, with G an
    integer matrix.  Norms of lattice points are then y^T G y / den for
    integer coordinates y, ready for `form_points`."""
    den = lcm(*(Fraction(c).denominator for row in basis for c in row))
    rows = [[int(c * den) for c in row] for row in basis]
    U, gram = size_reduce([[dot(u, w) for w in rows] for u in rows])
    reduced = [tuple(Fraction(c, den) for c in row) for row in mat_mul(U, rows)]
    return reduced, gram, den * den
