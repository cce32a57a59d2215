"""Randomized property suites, shared by the standalone tests and the
acceptance gate.  Each function runs ``cases`` random checks with exact
arithmetic and raises AssertionError on the first violation."""

from itertools import combinations
from math import gcd

from mcg_spinlab.factorization import (
    Curve,
    PositiveFactorization,
    hurwitz_move,
    product_matrix_int,
    product_matrix_mod2,
)
from mcg_spinlab.homology import SurfaceBasis, intersect, transvect, transvection_matrix
from mcg_spinlab.presentations import smith_normal_form

from .helpers import random_form, random_int_class, random_mod2_class


def refinement_identity(rng, cases: int) -> int:
    for _ in range(cases):
        basis = SurfaceBasis(rng.randint(1, 8))
        q = random_form(rng, basis)
        a = random_mod2_class(rng, basis)
        b = random_mod2_class(rng, basis)
        assert q(a + b) == (q(a) + q(b) + intersect(a, b)) % 2
    return cases


def q_preserved_by_unit_twists(rng, cases: int) -> int:
    done = 0
    while done < cases:
        basis = SurfaceBasis(rng.randint(1, 6))
        q = random_form(rng, basis)
        c = random_mod2_class(rng, basis, nonzero=True)
        if q(c) != 1:
            continue
        v = random_mod2_class(rng, basis)
        assert q(transvect(c, v)) == q(v)
        done += 1
    return done


def hurwitz_products_invariant(rng, cases: int) -> int:
    for _ in range(cases):
        g = rng.randint(1, 3)
        basis = SurfaceBasis(g)
        twists = []
        for i in range(rng.randint(2, 7)):
            cls = random_int_class(rng, basis, odd=True)
            twists.append(Curve(f"t{i}", cls))
        p = PositiveFactorization(basis, tuple(twists), 0)
        q = hurwitz_move(p, rng.randrange(len(twists) - 1), rng.choice(("left", "right")))
        assert product_matrix_mod2(q) == product_matrix_mod2(p)
        assert product_matrix_int(q) == product_matrix_int(p)
    return cases


def transvection_matrices_symplectic(rng, cases: int) -> int:
    for _ in range(cases):
        basis = SurfaceBasis(rng.randint(1, 4))
        c = random_int_class(rng, basis, odd=True)
        assert transvection_matrix(c).is_symplectic()
        assert transvection_matrix(c.mod2()).is_symplectic()
    return cases


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    return sum((-1) ** j * matrix[0][j] * _det([row[:j] + row[j + 1:] for row in matrix[1:]]) for j in range(n))


def snf_determinantal_divisors(rng, cases: int) -> int:
    """The k-th determinantal divisor (gcd of the k x k minors) is d1 ... dk, and 0 past the rank.

    Matrices are up to 6 x 4, tall ones included, with zero and duplicate rows.
    """
    for _ in range(cases):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 4)
        m = []
        for _ in range(nrows):
            kind = rng.random()
            if kind < 0.15:
                m.append([0] * ncols)
            elif kind < 0.3 and m:
                m.append(list(rng.choice(m)))
            else:
                m.append([rng.randint(-9, 9) for _ in range(ncols)])
        factors = smith_normal_form(m)
        product = 1
        for k in range(1, min(nrows, ncols) + 1):
            dk = 0
            for rows in combinations(range(nrows), k):
                for cols in combinations(range(ncols), k):
                    dk = gcd(dk, _det([[m[i][j] for j in cols] for i in rows]))
            if k <= len(factors):
                product *= factors[k - 1]
                assert dk == product
            else:
                assert dk == 0
    return cases


ALL_SUITES = (
    ("quadratic refinement identity", refinement_identity),
    ("q preserved by q=1 transvections", q_preserved_by_unit_twists),
    ("hurwitz move product invariance", hurwitz_products_invariant),
    ("transvection matrix symplecticity", transvection_matrices_symplectic),
    ("snf determinantal divisor oracle", snf_determinantal_divisors),
)
