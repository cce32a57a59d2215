"""Row-wise transvection products, the test-only oracles of the packed kernels.

Each twist right-multiplies the running product by I + c (Jc)^T, so every
row gets (row . c) (Jc)^T added: one dot product per row and twist, with
no bounds or lanes to trust.
"""

from typing import Sequence

from mcg_spinlab.factorization import PositiveFactorization
from mcg_spinlab.homology import IntMatrix, Mod2Matrix, PreconditionError, pairing_vector


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
