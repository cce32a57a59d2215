"""Test-only oracles: slow, direct routes to what the package computes faster.

- Row-wise transvection products, for the packed kernels.  Each twist
  right-multiplies the running product by I + c (Jc)^T, so every row gets
  (row . c) (Jc)^T added: one dot product per row and twist, with no bounds
  or lanes to trust.
- Gaussian elimination on a 0/1 list matrix, for ``mod2_rank``.
- The bred certificate from the flat word, for ``bred_fibration``.
- The geography rows as lists, for the text of ``region_chunks``.
"""

from typing import Optional, Sequence

from mcg_spinlab.constructions import (
    BredCertificate,
    _chain_cover_pushforward,
    _chain_reduction_checks,
    spin_form_alternating,
    twisted_double,
)
from mcg_spinlab.factorization import PositiveFactorization, check_relation, check_spin
from mcg_spinlab.homology import IntMatrix, Mod2Matrix, PreconditionError, pairing_vector
from mcg_spinlab.invariants import FibrationInvariants, _check_region_bound, euler_characteristic
from mcg_spinlab.presentations import fibration_h1


def row_product_mod2(p: PositiveFactorization) -> Mod2Matrix:
    n = p.basis.dim
    rows = list(Mod2Matrix.identity(n).rows)
    for curve in p.twists:
        c_bits = curve.mod2.bits
        jc_bits = pairing_vector(curve.mod2)
        for i in range(n):
            if (rows[i] & c_bits).bit_count() & 1:
                rows[i] ^= jc_bits
    return Mod2Matrix(n, tuple(rows))


def row_product_int(p: PositiveFactorization) -> IntMatrix:
    """The nonzero entries of c and Jc are listed once per distinct class."""
    if not p.has_integer_classes():
        raise PreconditionError("some twist curve has no integer class")
    n = p.basis.dim
    rows = [list(r) for r in IntMatrix.identity(n).rows]
    supports: dict[tuple[int, ...], tuple] = {}
    for curve in p.twists:
        coords = curve.int_class.coords
        if coords not in supports:
            supports[coords] = (_nonzero(coords), _nonzero(pairing_vector(curve.int_class)))
        c_support, jc_support = supports[coords]
        for row in rows:
            mult = sum([row[i] * a for i, a in c_support])
            if mult:
                for j, b in jc_support:
                    row[j] += mult * b
    return IntMatrix(tuple(tuple(r) for r in rows))


def _nonzero(v: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((i, a) for i, a in enumerate(v) if a)


def gauss_rank_mod2(bit_rows: Sequence[int]) -> int:
    """Rank over F_2: unpack to 0/1 lists, then eliminate column by column from bit 0."""
    width = max((row.bit_length() for row in bit_rows), default=0)
    matrix = [[row >> j & 1 for j in range(width)] for row in bit_rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i, row in enumerate(matrix):
            if i != rank and row[col]:
                matrix[i] = [a ^ b for a, b in zip(row, matrix[rank])]
        rank += 1
    return rank


def flat_bred_certificate(p: PositiveFactorization) -> BredCertificate:
    """The certificate of a bred word, multiplied, spin-checked and ranked as a flat word.

    Each pencil replaces a four-twist boundary block by eight twists, so k is
    the word's excess length over the double, divided by 4.  The invariants
    are the paper's sigma = -8(g+1) with e counted from the word.
    """
    g = p.genus
    k = (len(p) - len(twisted_double(g))) // 4
    relation = check_relation(p)
    h1 = fibration_h1(p)
    if h1.coefficients == "Z/2":
        h1_dim = h1.mod2_dimension
    else:
        h1_dim = h1.group.free_rank + sum(1 for d in h1.group.torsion if d % 2 == 0)
    fast_path: Optional[bool] = None
    if k < 2 * g + 2:
        fast_path = _chain_cover_pushforward(g) <= {c.mod2 for c in p.twists}
    first, second = _chain_reduction_checks(g)
    e, sigma = euler_characteristic(p), -8 * (g + 1)
    return BredCertificate(
        g=g,
        k=k,
        length=len(p),
        boundary_power=p.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral,
        spin=check_spin(p, spin_form_alternating(p.basis)),
        invariants=FibrationInvariants(e, sigma, "paper-formula", (e + sigma) // 4, 2 * e + 3 * sigma),
        h1_mod2_dimension=h1_dim,
        chain_cover_fast_path=fast_path,
        b2_equals_c1_c5_c9=first,
        b2_preimage_is_c1_in_quotient=second,
    )


def region_rows(m_max: int) -> list[list[int]]:
    """The rows [m, n, g, k] of ``enumerate_region(m_max)``, each point with ``realize``'s (g, k).

    ``realize`` never fails on the region, so each row is
    [m, n, m - 1 - n/8, n/8] (the proof is in ``region_chunks``).
    """
    _check_region_bound(m_max)
    return [
        [m, n, m - 1 - n // 8, n // 8]
        for m in range(6, m_max + 1)
        for n in range((8 * m) % 16, min(8 * (m - 6), 16 * m // 3) + 1, 16)
    ]
