import json
from fractions import Fraction

import pytest

from mcg_spinlab.factorization import Curve, PositiveFactorization
from mcg_spinlab.homology import (
    IntMatrix,
    PreconditionError,
    SurfaceBasis,
    pairing_vector,
    transvection_matrix,
)
from mcg_spinlab.invariants import (
    FibrationInvariants,
    _transvection_meyer_term,
    GeographyPoint,
    enumerate_region,
    euler_characteristic,
    invariants_of,
    is_admissible,
    meyer_cocycle,
    realize,
    region_chunks,
    signature_endo,
    signature_meyer,
)
from mcg_spinlab.constructions import (
    bred_fibration,
    chain_curves,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    twisted_double,
)

from .conftest import make_rng
from .helpers import random_int_class
from .oracles import region_rows


def torus_word(copies=6):
    b = SurfaceBasis(1)
    a = Curve("a", b.unit_int(0))
    c = Curve("b", b.unit_int(1))
    return PositiveFactorization(b, (a, c) * copies, 1)


def random_odd_word(rng, max_genus=3, max_length=8):
    basis = SurfaceBasis(rng.randint(1, max_genus))
    classes = [random_int_class(rng, basis, bound=2, odd=True) for _ in range(rng.randint(2, max_length))]
    return PositiveFactorization(basis, tuple(Curve(f"c{i}", c) for i, c in enumerate(classes)), 0)


def random_symplectic(rng, g, steps=5):
    basis = SurfaceBasis(g)
    m = IntMatrix.identity(2 * g)
    for _ in range(steps):
        m = m @ transvection_matrix(random_int_class(rng, basis, bound=2, odd=True))
    return m


class TestEuler:
    def test_hyperelliptic_g5(self):
        u, _ = hyperelliptic_factorizations(5)
        assert euler_characteristic(u) == 28  # blow-up of a rational surface: 3 + (4g+5)

    def test_bred_formula(self):
        for g in (5, 7):
            for k in (0, 2, 2 * g + 2):
                p, _ = bred_fibration(g, k, certify=False)
                assert euler_characteristic(p) == 12 * (g + 1) + 4 * k

    def test_degenerate_arithmetic(self):
        b = SurfaceBasis(0)
        dot = Curve("d", b.zero_int(), nonseparating=False)
        p = PositiveFactorization(b, (dot,), 0)
        assert euler_characteristic(p) == 5


class TestEndo:
    def test_hyperelliptic_totals(self):
        for g in (5, 7, 9):
            u, _ = hyperelliptic_factorizations(g)
            assert signature_endo(u, hyperelliptic=True) == -4 * g - 4

    def test_double_totals(self):
        for g in (5, 7):
            td = twisted_double(g)
            assert signature_endo(td, hyperelliptic=True) == -8 * g - 8

    def test_chain_word_arithmetic(self):
        g = 5
        ch = chain_curves(g)
        p = PositiveFactorization(ch[0].basis, tuple(ch), 0)
        assert signature_endo(p, hyperelliptic=True) == -(g + 1)

    def test_requires_certificate(self):
        u, _ = hyperelliptic_factorizations(5)
        with pytest.raises(PreconditionError):
            signature_endo(u, hyperelliptic=False)

    def test_rejects_separating_cycle(self):
        b = SurfaceBasis(2)
        sep = Curve("s", b.zero_int(), nonseparating=False)
        p = PositiveFactorization(b, (sep,), 0)
        with pytest.raises(PreconditionError):
            signature_endo(p, hyperelliptic=True)

    def test_non_integral_rejected(self):
        # one twist at genus 2: -(3/5) is not an integer
        b = SurfaceBasis(2)
        c = Curve("c", b.unit_int(0))
        p = PositiveFactorization(b, (c,), 0)
        with pytest.raises(PreconditionError):
            signature_endo(p, hyperelliptic=True)


class TestMeyer:
    def test_torus_fibration(self):
        assert signature_meyer(torus_word()) == -8

    def test_torus_fibration_double(self):
        # the double of the elliptic surface: 24 twists, signature -16
        assert signature_meyer(torus_word(12)) == -16

    def test_rotation_has_same_signature(self):
        u, v = hyperelliptic_factorizations(5)
        assert signature_meyer(v) == signature_meyer(u) == -24

    def test_identity_arguments_vanish(self):
        rng = make_rng(30)
        for g in (1, 2, 3):
            ident = IntMatrix.identity(2 * g)
            for _ in range(10):
                m = random_symplectic(rng, g)
                assert meyer_cocycle(m, ident) == 0
                assert meyer_cocycle(ident, m) == 0

    def test_cocycle_identity(self):
        rng = make_rng(31)
        for _ in range(60):
            g = rng.randint(1, 3)
            a, b, c = (random_symplectic(rng, g) for _ in range(3))
            assert meyer_cocycle(a, b) + meyer_cocycle(a @ b, c) == meyer_cocycle(a, b @ c) + meyer_cocycle(b, c)

    def test_hyperelliptic_agreement(self):
        for g in (5, 7, 9):
            for word in hyperelliptic_factorizations(g):
                assert signature_meyer(word) == signature_endo(word, hyperelliptic=True) == -4 * g - 4

    def test_rank_one_term_matches_oracle(self):
        # every step of the partial-product sum, against the general Meyer cocycle
        rng = make_rng(32)
        words = [hyperelliptic_factorizations(5)[0], korkmaz_cadavid(5), twisted_double(5)]
        words += [random_odd_word(rng) for _ in range(40)]
        seen = set()
        for p in words:
            classes = [c.int_class for c in p.twists]
            a = transvection_matrix(classes[0])
            oracle_total = 0
            for c in classes[1:]:
                b = transvection_matrix(c)
                ainv = [list(row) for row in a.symplectic_inverse().rows]
                term = _transvection_meyer_term(ainv, c.coords, pairing_vector(c))
                assert term == meyer_cocycle(a, b)
                seen.add(term)
                oracle_total += term
                a = a @ b
            assert signature_meyer(p) == oracle_total
        assert seen == {-1, 0, 1}

    def test_novikov_additivity_instance(self):
        u, _ = hyperelliptic_factorizations(5)
        assert signature_meyer(twisted_double(5)) == 2 * signature_meyer(u) == -48

    def test_missing_integer_classes(self):
        p, _ = bred_fibration(5, 1, certify=False)
        with pytest.raises(PreconditionError):
            signature_meyer(p)

    def test_single_twist_baseline(self):
        # no partial-product pairs, so the sum is empty
        b = SurfaceBasis(1)
        c = Curve("a", b.unit_int(0))
        assert signature_meyer(PositiveFactorization(b, (c,), 0)) == 0


class TestInvariantsOf:
    def test_bred_small_k(self):
        p, _ = bred_fibration(5, 2, certify=False)
        inv = invariants_of(p, "paper-formula")
        assert (inv.euler, inv.signature, inv.chi_h, inv.c1_squared) == (80, -48, 8, 16)
        p, _ = bred_fibration(5, 3, certify=False)
        inv = invariants_of(p, "paper-formula")
        assert (inv.euler, inv.signature, inv.chi_h, inv.c1_squared) == (84, -48, 9, 24)
        assert inv.chi_h == 5 + 1 + 3 and inv.c1_squared == 8 * 3

    def test_bred_corner(self):
        p, _ = bred_fibration(5, 0, certify=False)
        inv = invariants_of(p, "paper-formula")
        assert (inv.chi_h, inv.c1_squared) == (6, 0)

    def test_consistency_identity(self):
        for g, k in ((5, 0), (5, 3), (7, 7)):
            p, _ = bred_fibration(g, k, certify=False)
            inv = invariants_of(p, "paper-formula")
            assert 4 * inv.chi_h - inv.euler - inv.signature == 0

    def test_meyer_source(self):
        u, _ = hyperelliptic_factorizations(5)
        inv = invariants_of(u, "meyer")
        assert (inv.euler, inv.signature, inv.chi_h, inv.c1_squared) == (28, -24, 1, -16)

    def test_fixed_formula_restricted_to_family(self):
        u, _ = hyperelliptic_factorizations(5)
        with pytest.raises(PreconditionError):
            invariants_of(u, "paper-formula")

    def test_type_invariants_enforced(self):
        with pytest.raises(PreconditionError):
            FibrationInvariants(euler=10, signature=-2, signature_method="endo", chi_h=3, c1_squared=14)


class TestGeography:
    def test_admissibility_samples(self):
        assert is_admissible(GeographyPoint(6, 0))
        assert is_admissible(GeographyPoint(7, 8))
        assert not is_admissible(GeographyPoint(6, 8))

    def test_realize_samples(self):
        assert realize(GeographyPoint(6, 0)) == (5, 0)
        assert realize(GeographyPoint(7, 8)) == (5, 1)
        assert realize(GeographyPoint(6, 8)) is None

    def test_small_regions(self):
        assert [(p.m, p.n) for p in enumerate_region(6)] == [(6, 0)]
        assert [(p.m, p.n) for p in enumerate_region(8)] == [(6, 0), (7, 8), (8, 0), (8, 16)]

    def test_matches_bruteforce(self):
        for m_max in [*range(9), 40]:
            points = [(p.m, p.n) for p in enumerate_region(m_max)]
            brute = []
            for m in range(m_max + 1):
                for n in range(0, 6 * m_max + 1):
                    if n >= 0 and (n - 8 * m) % 16 == 0 and n <= 8 * (m - 6) and Fraction(n) <= Fraction(16, 3) * m:
                        brute.append((m, n))
            assert points == brute, m_max

    def test_realize_is_left_inverse_on_family(self):
        for g in (5, 7, 9, 11):
            for k in range(0, 2 * g + 3):
                pt = GeographyPoint(g + 1 + k, 8 * k)
                assert realize(pt) == (g, k)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            enumerate_region(10_001)
        with pytest.raises(PreconditionError):
            enumerate_region(-1)

    def test_rows_are_the_realized_region(self):
        # oracle: the points of enumerate_region, each realized
        for m_max in range(301):
            assert region_rows(m_max) == [[pt.m, pt.n, *realize(pt)] for pt in enumerate_region(m_max)], m_max

    def test_rows_match_an_admissibility_scan(self):
        # oracle: every (m, n) with m <= 80 and n <= 8m (admissible points have
        # n <= 8(m - 6)), kept when is_admissible holds
        scan = [
            [m, n, *realize(GeographyPoint(m, n))]
            for m in range(81)
            for n in range(8 * m + 1)
            if is_admissible(GeographyPoint(m, n))
        ]
        for m_max in range(81):
            rows = [row for row in scan if row[0] <= m_max]
            assert region_rows(m_max) == rows, m_max
            assert "[" + "".join(region_chunks(m_max)) + "]" == json.dumps(rows, separators=(",", ":")), m_max

    @pytest.mark.parametrize("m_max", [-1, 10_001])
    def test_rows_guard(self, m_max):
        with pytest.raises(PreconditionError) as rows_error:
            region_chunks(m_max)
        with pytest.raises(PreconditionError) as points_error:
            enumerate_region(m_max)
        assert str(rows_error.value) == str(points_error.value)
