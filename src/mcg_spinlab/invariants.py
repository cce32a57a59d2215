"""Characteristic numbers of fibration total spaces and the geography region.

All arithmetic is exact: big integers and Fractions, never floats.  The
signature comes from three independent sources: Endo's closed form for
hyperelliptic words with nonseparating cycles, a Meyer-cocycle sum over the
partial monodromy products, and the fixed value for the bred family, which
``constructions.bred_invariants`` applies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from math import gcd
from typing import Iterator, Optional

from .factorization import PositiveFactorization
from .homology import IntMatrix, PreconditionError, pairing_vector, standard_j


def euler_characteristic(p: PositiveFactorization) -> int:
    """e = 4 - 4g + number of twists."""
    return 4 - 4 * p.genus + len(p)


def signature_endo(p: PositiveFactorization) -> int:
    """Endo's formula restricted to all-nonseparating words: -(g+1)/(2g+1) * l.

    The caller vouches that the word is hyperelliptic; entries with zero mod-2
    class (separating cycles) are rejected rather than guessed, and a
    non-integral result means the word was not.
    """
    for c in p.twists:
        if c.mod2.is_zero():
            raise PreconditionError(f"separating cycle {c.label}: out of scope for this formula")
    g = p.genus
    sigma = Fraction(-(g + 1) * len(p), 2 * g + 1)
    if sigma.denominator != 1:
        raise PreconditionError("non-integral signature: hyperellipticity certificate invalid")
    return int(sigma)


# --- exact rational linear algebra for the Meyer cocycle -------------------------


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, by fraction-exact Gauss elimination."""
    m = [row[:] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -m[i][j]
        basis.append(vec)
    return basis


def _signature_symmetric(gram: list[list[Fraction]]) -> int:
    """Signature of a symmetric rational matrix by congruence diagonalization."""
    a = [row[:] for row in gram]
    n = len(a)
    pos = neg = 0
    used = [False] * n
    while True:
        pivot = None
        for i in range(n):
            if not used[i] and a[i][i]:
                pivot = i
                break
        if pivot is None:
            off = None
            for i in range(n):
                if used[i]:
                    continue
                for j in range(i + 1, n):
                    if not used[j] and a[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break
            i, j = off
            # make a nonzero diagonal entry; a[j][j] = 0 here or it would be the pivot
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        d = a[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        used[pivot] = True
        for i in range(n):
            if i == pivot or used[i]:
                continue
            if a[i][pivot]:
                f = a[i][pivot] / d
                for k in range(n):
                    a[i][k] -= f * a[pivot][k]
                for k in range(n):
                    a[k][i] -= f * a[k][pivot]
    return pos - neg


def meyer_cocycle(a: IntMatrix, b: IntMatrix) -> int:
    """Meyer's 2-cocycle on the symplectic group, for general A and B.

    Value: signature of the pairing <(x1,y1),(x2,y2)> = (x1+y1)^T J (I-B) y2
    on the solution space {(x, y) : (A^-1 - I) x + (B - I) y = 0}.  This is
    the oracle for the rank-one term that ``signature_meyer`` evaluates when
    B is a transvection.
    """
    n = a.n
    if b.n != n or n % 2:
        raise PreconditionError("Meyer cocycle needs two symplectic matrices of equal even size")
    g = n // 2
    ainv = a.symplectic_inverse()
    ident = IntMatrix.identity(n)
    rows = []
    for i in range(n):
        row = [Fraction(ainv.rows[i][j] - ident.rows[i][j]) for j in range(n)]
        row += [Fraction(b.rows[i][j] - ident.rows[i][j]) for j in range(n)]
        rows.append(row)
    kernel = _nullspace(rows, 2 * n)

    j_mat = standard_j(g)
    # rows of J(I - B)
    jib = [
        [sum(j_mat.rows[i][k] * (ident.rows[k][jj] - b.rows[k][jj]) for k in range(n)) for jj in range(n)]
        for i in range(n)
    ]
    dim = len(kernel)
    gram = [[Fraction(0)] * dim for _ in range(dim)]
    for r in range(dim):
        xr = kernel[r][:n]
        yr = kernel[r][n:]
        left = [xr[i] + yr[i] for i in range(n)]
        for s in range(dim):
            ys = kernel[s][n:]
            val = Fraction(0)
            for i in range(n):
                if left[i]:
                    val += left[i] * sum(jib[i][jj] * ys[jj] for jj in range(n))
            gram[r][s] = val
    for r in range(dim):
        for s in range(r + 1, dim):
            if gram[r][s] != gram[s][r]:
                raise AssertionError("Meyer pairing failed to be symmetric")
    return _signature_symmetric(gram)


def _transvection_meyer_term(ainv: list[list[int]], c: tuple[int, ...], w: tuple[int, ...]) -> int:
    """meyer_cocycle(A, T_c), given the rows of A^-1 and w = J c.

    I - T_c = -c w^T has rank one, so the Meyer pairing on its solution space
    is -s1 s2 (1 + w.x0) with s = w.y, where (A^-1 - I) x0 = -c.  The value is
    -sign(1 + w.x0), or 0 when that system has no solution.
    """
    n = len(c)
    rows = [[a - (i == j) for j, a in enumerate(row)] + [-c[i]] for i, row in enumerate(ainv)]
    # integer Gauss-Jordan: fraction-free row operations, each changed row divided by its gcd
    pivot_cols: list[int] = []
    for col in range(n):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(n):
            f = rows[i][col]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                d = gcd(*row)
                rows[i] = [a // d for a in row] if d > 1 else row
        pivot_cols.append(col)
    if any(row[n] for row in rows[len(pivot_cols):]):
        return 0
    # x0 is 0 off the pivot columns and row[n] / row[col] on them
    weights = [(Fraction(w[col], row[col]), row) for col, row in zip(pivot_cols, rows) if w[col]]
    # rank-one symmetry: w.k = 0 for the kernel vector k of each free column j,
    # k_j = 1 and k_col = -row[j] / row[col] on the pivot columns
    for j in range(n):
        if j not in pivot_cols and w[j] != sum(f * row[j] for f, row in weights):
            raise AssertionError("Meyer pairing failed to be symmetric")
    value = 1 + sum(f * row[n] for f, row in weights)
    return -1 if value > 0 else (1 if value < 0 else 0)


def signature_meyer(p: PositiveFactorization) -> int:
    """Signature as the Meyer-cocycle sum over the partial monodromy products.

    With A_k = T_1 ... T_k, sigma = sum over k >= 1 of tau(A_k, T_{k+1}).  Each
    T = T_c is a transvection, so tau(A, T_c) = -sign(1 + w.x0) with w = J c and
    (A^-1 - I) x0 = -c, and tau = 0 when that system has no rational solution.
    A^-1 is kept as integer rows and updated once per letter,
    (A T_c)^-1 = A^-1 - c (w^T A^-1).  The sign convention is that of
    ``meyer_cocycle``, fixed by the known totals of the hyperelliptic words.
    Requires integer classes on every twist.
    """
    if not p.has_integer_classes():
        raise PreconditionError("Meyer signature needs integer classes on every twist")
    n = p.basis.dim
    ainv = [[int(i == j) for j in range(n)] for i in range(n)]
    total = 0
    for k, curve in enumerate(p.twists):
        c = curve.int_class.coords
        w = pairing_vector(curve.int_class)
        if k:
            total += _transvection_meyer_term(ainv, c, w)
        support = [i for i in range(n) if w[i]]
        wa = [sum(w[i] * ainv[i][j] for i in support) for j in range(n)]
        for i in range(n):
            if c[i]:
                ainv[i] = [a - c[i] * b for a, b in zip(ainv[i], wa)]
    return total


# --- invariant bundles -----------------------------------------------------------


@dataclass(frozen=True)
class FibrationInvariants:
    euler: int
    signature: int
    signature_method: str
    chi_h: int
    c1_squared: int

    def __post_init__(self) -> None:
        if 4 * self.chi_h != self.euler + self.signature:
            raise PreconditionError("4 chi_h = e + sigma violated")
        if self.c1_squared != 2 * self.euler + 3 * self.signature:
            raise PreconditionError("c1^2 = 2e + 3 sigma violated")


def invariants_of(p: PositiveFactorization, signature_source: str) -> FibrationInvariants:
    """Bundle (e, sigma, chi_h, c1^2) using the requested signature source, "endo" or "meyer".

    "endo" trusts the caller that p is hyperelliptic.  "paper-formula" is
    refused for every word: sigma = -8(g+1) holds for the bred family, which
    a word cannot vouch for, so ``constructions.bred_invariants(g, k)`` is its
    only source.
    """
    e = euler_characteristic(p)
    if signature_source == "endo":
        sigma = signature_endo(p)
        method = "endo-hyperelliptic"
    elif signature_source == "meyer":
        sigma = signature_meyer(p)
        method = "meyer"
    elif signature_source == "paper-formula":
        raise PreconditionError("fixed-signature source only applies to the bred family")
    else:
        raise PreconditionError(f"unknown signature source {signature_source!r}")
    if (e + sigma) % 4:
        raise PreconditionError("e + sigma not divisible by 4")
    chi = (e + sigma) // 4
    return FibrationInvariants(e, sigma, method, chi, 2 * e + 3 * sigma)


# --- geography -------------------------------------------------------------------


@dataclass(frozen=True)
class GeographyPoint:
    m: int  # chi_h
    n: int  # c1^2

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise PreconditionError("geography points live in the first quadrant")


def is_admissible(pt: GeographyPoint) -> bool:
    """n >= 0, n = 8m mod 16, n <= 8(m-6), 3n <= 16m, all evaluated exactly."""
    return (
        pt.n >= 0
        and (pt.n - 8 * pt.m) % 16 == 0
        and pt.n <= 8 * (pt.m - 6)
        and 3 * pt.n <= 16 * pt.m
    )


def realize(pt: GeographyPoint) -> Optional[tuple[int, int]]:
    """Invert chi_h = g+1+k, c1^2 = 8k over the bred family; None if impossible."""
    if pt.n % 8:
        return None
    k = pt.n // 8
    g = pt.m - 1 - k
    if g % 2 == 0 or g < 5 or not 0 <= k <= 2 * g + 2:
        return None
    return g, k


def _check_region_bound(m_max: int) -> None:
    if m_max < 0:
        raise PreconditionError("region enumeration needs m_max >= 0")
    if m_max > 10_000:
        raise PreconditionError("region enumeration guarded at m <= 10^4")


def enumerate_region(m_max: int) -> list[GeographyPoint]:
    """All admissible points with m <= m_max, ordered by (m, n), in closed form.

    n = 8m (mod 16) runs in steps of 16 up to min(8(m-6), 16m/3); m < 6 has none.
    """
    _check_region_bound(m_max)
    return [
        GeographyPoint(m, n)
        for m in range(6, m_max + 1)
        for n in range((8 * m) % 16, min(8 * (m - 6), 16 * m // 3) + 1, 16)
    ]


@functools.lru_cache(maxsize=512)  # every chunk of a --max-m 517 request; ~40 MB at the m <= 10^4 guard
def _region_chunk(m: int, row: str, sep: str) -> str:
    k0 = m % 2
    ns = range(8 * k0, min(8 * (m - 6), 16 * m // 3) + 1, 16)
    text = sep.join(map((row % m).__mod__, zip(ns, range(m - 1 - k0, 4, -2), count(k0, 2))))
    return text if m == 6 else sep + text


def region_chunks(m_max: int, row: str = "[%d,%%d,%%d,%%d]", sep: str = ",") -> Iterator[str]:
    """The rows [m, n, g, k] of ``enumerate_region(m_max)``, each point with ``realize``'s (g, k), as text.

    One chunk per m, cached by m: ``row % m`` formats that m's (n, g, k), the
    rows are joined by ``sep``, and every chunk but m = 6's starts with ``sep``
    (every m >= 6 has a row).  ``realize`` never fails on the region, so each row is
    [m, n, m - 1 - n/8, n/8] and no point is built: n = 8m (mod 16) makes
    n divisible by 8 and k = n/8 = m (mod 2), so g = m - 1 - k is odd;
    n <= 8(m - 6) gives k <= m - 6, so g >= 5; 3n <= 16m gives
    3k <= 2m = 2(g + 1 + k), so k <= 2g + 2; and k >= 0 since n >= 0.
    """
    _check_region_bound(m_max)
    return map(_region_chunk, range(6, m_max + 1), repeat(row), repeat(sep))
