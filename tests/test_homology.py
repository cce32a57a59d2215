from itertools import combinations

import pytest

from mcg_spinlab.homology import (
    ClassInt,
    ClassMod2,
    IntMatrix,
    Mod2Matrix,
    PreconditionError,
    QuadraticForm,
    SurfaceBasis,
    arf_invariant,
    enumerate_spin_structures,
    intersect,
    is_twist_in_spin_mcg,
    mod2_rank,
    pairing_vector,
    transvect,
    transvect_inverse,
    transvection_matrix,
)
from mcg_spinlab.constructions import (
    bred_fibration,
    chain_curves,
    korkmaz_cadavid,
    spin_form_all_ones,
    spin_form_alternating,
)

from .conftest import make_rng
from .oracles import gauss_rank_mod2
from .helpers import random_int_class, random_mod2_class, random_form


def units(basis):
    return [basis.unit_mod2(i) for i in range(basis.dim)]


class TestIntersect:
    def test_symplectic_basis_pairs(self):
        b = SurfaceBasis(2)
        x1, x2, y1, y2 = b.unit_mod2(0), b.unit_mod2(1), b.unit_mod2(2), b.unit_mod2(3)
        assert intersect(x1, y1) == 1
        assert intersect(x1, x2) == 0
        assert intersect(x1, y2) == 0

    def test_chain_classes(self):
        c = chain_curves(5)
        # c3 = y1+y2, c4 = x2
        assert c[2].mod2.sparse() == "y1+y2"
        assert c[3].mod2.sparse() == "x2"
        assert intersect(c[2].mod2, c[3].mod2) == 1

    def test_antisymmetric_over_z(self):
        rng = make_rng(1)
        b = SurfaceBasis(3)
        for _ in range(50):
            u = random_int_class(rng, b)
            v = random_int_class(rng, b)
            assert intersect(u, v) == -intersect(v, u)

    def test_dimension_mismatch(self):
        u = SurfaceBasis(2).unit_mod2(0)
        v = SurfaceBasis(3).unit_mod2(0)
        with pytest.raises(PreconditionError):
            intersect(u, v)

    def test_mod2_is_integer_pairing_of_lifts(self):
        # Independent of pairing_vector: any integer lifts of two mod-2
        # classes pair to an integer of the same parity.
        rng = make_rng(15)
        for g in (1, 2, 3, 5):
            b = SurfaceBasis(g)
            for _ in range(40):
                u, v = random_mod2_class(rng, b), random_mod2_class(rng, b)
                lu, lv = (
                    ClassInt(b, tuple((w.bits >> i & 1) + 2 * rng.randint(-2, 2) for i in range(b.dim)))
                    for w in (u, v)
                )
                assert lu.mod2() == u and lv.mod2() == v
                assert intersect(u, v) == intersect(lu, lv) % 2


class TestPackedClass:
    def test_bits_out_of_range(self):
        b = SurfaceBasis(2)
        for bits in (-1, 2**b.dim):
            with pytest.raises(PreconditionError):
                ClassMod2(b, bits)
        assert ClassMod2(b, 2**b.dim - 1).sparse() == "x1+x2+y1+y2"

    def test_bit_i_is_coordinate_i(self):
        b = SurfaceBasis(3)
        assert ClassMod2.parse(b, "x1+y3").bits == 1 | 1 << 5
        assert ClassMod2.parse(b, "0").bits == 0
        assert b.unit_mod2(4).support() == (4,)
        assert ClassInt(b, (3, -2, 0, 1, 5, -7)).mod2().bits == 0b111001


class TestTransvect:
    def test_fixes_own_class(self):
        b = SurfaceBasis(2)
        c = ClassMod2.parse(b, "x1+y2")
        assert transvect(c, c) == c

    def test_chain_property_mod2(self):
        c = chain_curves(5)
        b = c[0].basis
        v = c[0].mod2
        v = transvect(c[1].mod2, v)
        v = transvect(c[0].mod2, v)
        assert v == c[1].mod2

    def test_matches_direct_formula(self):
        rng = make_rng(2)
        b = SurfaceBasis(3)
        for _ in range(100):
            c = random_int_class(rng, b)
            v = random_int_class(rng, b)
            expected = ClassInt(
                b, tuple(a + intersect(v, c) * d for a, d in zip(v.coords, c.coords))
            )
            assert transvect(c, v) == expected

    def test_orientation_independent(self):
        rng = make_rng(3)
        b = SurfaceBasis(2)
        for _ in range(50):
            c = random_int_class(rng, b)
            v = random_int_class(rng, b)
            assert transvect(c, v) == transvect(-c, v)

    def test_inverse_round_trip(self):
        rng = make_rng(4)
        b = SurfaceBasis(3)
        for _ in range(50):
            c = random_int_class(rng, b)
            v = random_int_class(rng, b)
            assert transvect_inverse(c, transvect(c, v)) == v

    def test_integer_reduces_to_mod2(self):
        rng = make_rng(5)
        b = SurfaceBasis(3)
        for _ in range(100):
            c = random_int_class(rng, b)
            v = random_int_class(rng, b)
            assert transvect(c, v).mod2() == transvect(c.mod2(), v.mod2())

    @pytest.mark.parametrize("action", [transvect, transvect_inverse])
    def test_refuses_mixed_kinds_and_bases(self, action):
        b2, b3 = SurfaceBasis(2), SurfaceBasis(3)
        c = b2.unit_int(b2.x_index(1))
        for v in (c.mod2(), b2.unit_mod2(b2.y_index(1))):
            for first, second in ((c, v), (v, c)):
                with pytest.raises(PreconditionError, match="same kind"):
                    action(first, second)
        for u, v in ((c, b3.unit_int(0)), (c.mod2(), b3.unit_mod2(0))):
            for first, second in ((u, v), (v, u)):
                with pytest.raises(PreconditionError, match="different bases"):
                    action(first, second)


def oracle_quadratic(q, v):
    """Literal expansion: sum of basis values plus pairwise basis intersections."""
    idx = v.support()
    total = sum(q.values[i] for i in idx)
    b = q.basis
    for i, j in combinations(idx, 2):
        total += intersect(b.unit_mod2(i), b.unit_mod2(j))
    return total % 2


class TestQuadraticForm:
    def test_zero_class(self):
        b = SurfaceBasis(4)
        q = spin_form_all_ones(b)
        assert q(b.zero_mod2()) == 0

    def test_building_block_b0(self):
        # q(b_1 + ... + b_g) = g = 1 mod 2 at odd genus
        g = 7
        p = korkmaz_cadavid(g)
        q = spin_form_all_ones(p.basis)
        b0 = p.twists[0]
        assert b0.label == "B0"
        assert q(b0.mod2) == 1

    def test_alternating_form_on_sum_of_ys(self):
        b = SurfaceBasis(11)
        q = spin_form_alternating(b)
        cls = ClassMod2.parse(b, "y1+y2+y3+y4+y5")
        # 1+0+1+0+1 = 1
        assert q(cls) == 1

    def test_matches_expansion_oracle(self):
        rng = make_rng(6)
        for g in (1, 2, 3, 5):
            b = SurfaceBasis(g)
            for _ in range(50):
                q = random_form(rng, b)
                v = random_mod2_class(rng, b)
                assert q(v) == oracle_quadratic(q, v)

    def test_refinement_identity(self):
        rng = make_rng(7)
        for g in range(1, 9):
            b = SurfaceBasis(g)
            q = random_form(rng, b)
            for _ in range(25):
                u = random_mod2_class(rng, b)
                v = random_mod2_class(rng, b)
                assert q(u + v) == (q(u) + q(v) + intersect(u, v)) % 2


class TestSpinCriterion:
    def test_chain_classes_all_pass(self):
        c = chain_curves(5)
        q = spin_form_alternating(c[0].basis)
        assert all(is_twist_in_spin_mcg(q, cur.mod2) for cur in c)

    def test_even_y_fails(self):
        b = SurfaceBasis(5)
        q = spin_form_alternating(b)
        y2 = b.unit_mod2(b.y_index(2))
        assert not is_twist_in_spin_mcg(q, y2)

    def test_all_ones_on_a1(self):
        b = SurfaceBasis(3, labels="ab")
        q = spin_form_all_ones(b)
        a1 = b.unit_mod2(0)
        assert is_twist_in_spin_mcg(q, a1)

    def test_zero_class_rejected(self):
        b = SurfaceBasis(2)
        q = spin_form_all_ones(b)
        with pytest.raises(PreconditionError):
            is_twist_in_spin_mcg(q, b.zero_mod2())

    def test_q_one_twists_preserve_form(self):
        rng = make_rng(8)
        for g in (1, 2, 3):
            b = SurfaceBasis(g)
            for _ in range(60):
                q = random_form(rng, b)
                c = random_mod2_class(rng, b, nonzero=True)
                if q(c) != 1:
                    continue
                v = random_mod2_class(rng, b)
                assert q(transvect(c, v)) == q(v)


class TestTransvectionMatrix:
    def test_genus_one_example(self):
        b = SurfaceBasis(1)
        m = transvection_matrix(b.unit_mod2(0))
        assert m.to_rows() == ((1, 1), (0, 1))

    def test_sign_independent(self):
        rng = make_rng(9)
        b = SurfaceBasis(2)
        for _ in range(30):
            c = random_int_class(rng, b, odd=True)
            assert transvection_matrix(c) == transvection_matrix(-c)

    def test_agrees_with_transvect(self):
        rng = make_rng(10)
        b = SurfaceBasis(3)
        for _ in range(40):
            c = random_int_class(rng, b, odd=True)
            v = random_int_class(rng, b)
            assert transvection_matrix(c).apply(v) == transvect(c, v)
            assert transvection_matrix(c.mod2()).apply(v.mod2()) == transvect(c.mod2(), v.mod2())

    def test_symplectic_exact(self):
        rng = make_rng(11)
        for g in (1, 2, 3):
            b = SurfaceBasis(g)
            for _ in range(30):
                c = random_int_class(rng, b, odd=True)
                assert transvection_matrix(c).is_symplectic()
                assert transvection_matrix(c.mod2()).is_symplectic()
        assert not Mod2Matrix.from_rows(((1, 0), (0, 0))).is_symplectic()

    def test_product_over_relation_is_identity(self):
        p = korkmaz_cadavid(3)
        m = IntMatrix.identity(p.basis.dim)
        for cur in p.twists:
            m = m @ transvection_matrix(cur.int_class)
        assert m.is_identity()

    def test_mod2_apply_matches_row_product(self):
        rng = make_rng(16)
        for g in (1, 2, 3):
            b = SurfaceBasis(g)
            for _ in range(30):
                m = Mod2Matrix(b.dim, tuple(rng.randrange(1 << b.dim) for _ in range(b.dim)))
                v = random_mod2_class(rng, b)
                coords = [v.bits >> j & 1 for j in range(b.dim)]
                expected = [sum(a * x for a, x in zip(row, coords)) % 2 for row in m.to_rows()]
                assert [m.apply(v).bits >> i & 1 for i in range(b.dim)] == expected

    def test_symplectic_inverse(self):
        rng = make_rng(12)
        b = SurfaceBasis(2)
        m = IntMatrix.identity(4)
        for _ in range(6):
            m = m @ transvection_matrix(random_int_class(rng, b, odd=True))
        assert (m @ m.symplectic_inverse()).is_identity()


class TestPairingVector:
    def test_pairs_like_intersect(self):
        rng = make_rng(13)
        for g in (1, 2, 3, 5):
            b = SurfaceBasis(g)
            for _ in range(40):
                c = random_int_class(rng, b)
                v = random_int_class(rng, b)
                w = pairing_vector(c)
                assert sum(a * x for a, x in zip(w, v.coords)) == intersect(v, c)
                w_bits = pairing_vector(c.mod2())
                assert bin(w_bits & v.mod2().bits).count("1") & 1 == intersect(v.mod2(), c.mod2())
                assert w_bits == Mod2Matrix.from_rows([w]).rows[0]

    def test_rejects_non_class(self):
        with pytest.raises(PreconditionError):
            pairing_vector(spin_form_all_ones(SurfaceBasis(2)))


class TestMod2Rank:
    def test_matches_span_count(self):
        rng = make_rng(14)
        for _ in range(80):
            width = rng.randint(1, 6)
            rows = [rng.randrange(1 << width) for _ in range(rng.randint(0, 6))]
            span = {0}
            for r in rows:
                span |= {x ^ r for x in span}
            assert 1 << mod2_rank(rows) == len(span)

    def test_edge_cases(self):
        assert mod2_rank([]) == 0
        assert mod2_rank([0, 0, 0]) == 0
        assert mod2_rank([5, 5, 0, 5]) == 1
        assert mod2_rank(iter([1 << 129, 1, (1 << 129) | 1])) == 2

    def test_matches_gaussian_elimination_up_to_genus_65(self):
        # 130 bits is the dimension of H1 at the genus limit
        rng = make_rng(15)
        for case in range(120):
            width = rng.choice([1, 2, 7, 20, 50, 64, 65, 130]) if case % 2 else rng.randint(1, 130)
            count = rng.randint(0, width + 4)
            density = rng.choice([0.02, 0.1, 0.5])
            rows = [sum(1 << j for j in range(width) if rng.random() < density) for _ in range(count)]
            # zero rows and duplicates of earlier rows
            for _ in range(rng.randint(0, 3)):
                rows.insert(rng.randint(0, len(rows)), 0)
            if rows:
                rows += rng.sample(rows, rng.randint(0, min(3, len(rows))))
            assert mod2_rank(rows) == gauss_rank_mod2(rows), (case, width, rows)

    @pytest.mark.parametrize("g", [5, 13, 25])
    def test_matches_gaussian_elimination_on_bred_and_chain_rows(self, g):
        bred = sorted({c.mod2.bits for c in bred_fibration(g, 1, certify=False)[0].twists})
        ch = chain_curves(g)
        chain = [(ch[i].mod2 + ch[i + 1].mod2).bits for i in range(2 * g)]
        for rows in (bred, chain, chain + bred):
            assert mod2_rank(rows) == gauss_rank_mod2(rows)


def brute_force_spin_structures(basis, constraints):
    forms = []
    for packed in range(1 << basis.dim):
        q = QuadraticForm(basis, tuple((packed >> i) & 1 for i in range(basis.dim)))
        if all(q(cls) == bit for cls, bit in constraints):
            forms.append(q)
    return forms


class TestSpinEnumeration:
    def test_matches_brute_force(self):
        rng = make_rng(17)
        for _ in range(120):
            b = SurfaceBasis(rng.randint(1, 3))
            constraints = [
                (random_mod2_class(rng, b), rng.randint(0, 1)) for _ in range(rng.randint(0, b.dim + 1))
            ]
            assert enumerate_spin_structures(b, constraints) == brute_force_spin_structures(b, constraints)

    def test_unconstrained_counts(self):
        b = SurfaceBasis(1)
        assert len(enumerate_spin_structures(b)) == 4
        for g in (1, 2, 3, 4):
            forms = enumerate_spin_structures(SurfaceBasis(g))
            assert len(forms) == 4**g
            arf_zero = sum(1 for q in forms if arf_invariant(q) == 0)
            assert arf_zero == 2 ** (g - 1) * (2**g + 1)

    def test_building_block_constraint_family(self):
        # The forms that admit the whole odd-genus construction: q = 1 on the
        # monodromy classes and on the conjugator classes a_1..a_g.  There are
        # 2^n of them at g = 2n+1, the all-ones form among them.
        for g, expected in ((3, 2), (5, 4), (7, 8), (9, 16), (11, 32), (13, 64)):
            p = korkmaz_cadavid(g)
            classes = {c.mod2 for c in p.twists}
            classes.update(p.basis.unit_mod2(i) for i in range(g))
            constraints = [(cls, 1) for cls in sorted(classes, key=lambda c: c.bits)]
            forms = enumerate_spin_structures(p.basis, constraints)
            assert len(forms) == expected
            assert spin_form_all_ones(p.basis) in forms

    def test_monodromy_classes_alone(self):
        # Without the conjugator constraints the solution space is twice as
        # large in each handle pair: 2^(2n) forms.
        p = korkmaz_cadavid(3)
        constraints = [(cls, 1) for cls in sorted({c.mod2 for c in p.twists}, key=lambda c: c.bits)]
        assert len(enumerate_spin_structures(p.basis, constraints)) == 4

    def test_zero_bit_constraint(self):
        b = SurfaceBasis(2)
        forms = enumerate_spin_structures(b, [(b.unit_mod2(0), 0)])
        assert len(forms) == 2 ** (2 * 2 - 1)
        assert all(q(b.unit_mod2(0)) == 0 for q in forms)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            enumerate_spin_structures(SurfaceBasis(9))


class TestArf:
    def test_zero_form(self):
        b = SurfaceBasis(3)
        assert arf_invariant(QuadraticForm(b, (0,) * 6)) == 0

    def test_alternating_g5(self):
        assert arf_invariant(spin_form_alternating(SurfaceBasis(5))) == 1

    def test_matches_summation_oracle(self):
        rng = make_rng(13)
        for g in (1, 2, 3, 5):
            b = SurfaceBasis(g)
            for _ in range(50):
                q = random_form(rng, b)
                total = sum(
                    q(b.unit_mod2(k)) * q(b.unit_mod2(g + k)) for k in range(g)
                )
                assert arf_invariant(q) == total % 2

    def test_invariant_under_symplectic_substitution(self):
        rng = make_rng(14)
        for _ in range(40):
            g = rng.randint(1, 3)
            b = SurfaceBasis(g)
            q = random_form(rng, b)
            m = Mod2Matrix.identity(2 * g)
            for _ in range(6):
                m = m @ transvection_matrix(random_mod2_class(rng, b, nonzero=True))
            pulled = QuadraticForm(b, tuple(q(m.apply(b.unit_mod2(i))) for i in range(2 * g)))
            for _ in range(10):
                v = random_mod2_class(rng, b)
                assert pulled(v) == q(m.apply(v))
            assert arf_invariant(pulled) == arf_invariant(q)


class TestSparseForm:
    def test_round_trip(self):
        b = SurfaceBasis(5)
        for text in ("0", "x1", "x1+y3+y4", "y5"):
            assert ClassMod2.parse(b, text).sparse() == text

    def test_ab_labels(self):
        b = SurfaceBasis(3, labels="ab")
        cls = ClassMod2.parse(b, "a1+b3")
        assert cls.sparse() == "a1+b3"

    def test_out_of_range(self):
        b = SurfaceBasis(5)
        with pytest.raises(PreconditionError):
            ClassMod2.parse(b, "x9")
