import pytest

from mcg_spinlab.factorization import apply_word, check_relation, check_spin, conjugate
from mcg_spinlab.homology import PreconditionError, SurfaceBasis, intersect
from mcg_spinlab.invariants import euler_characteristic
from mcg_spinlab.presentations import AbelianGroup, fibration_h1, presentation_from_text
from mcg_spinlab.constructions import (
    boundary_conjugators,
    bred_fibration,
    chain_curves,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    pencil_images,
    spin_fibration_with_group,
    spin_form_all_ones,
    spin_form_alternating,
    subsurface_boundary,
    twisted_double,
)


class TestChainCurves:
    def test_even_entries_are_x(self):
        c = chain_curves(5)
        for i in range(1, 6):
            assert c[2 * i - 1].mod2.sparse() == f"x{i}"

    def test_consecutive_plus_one(self):
        c = chain_curves(5)
        for a, b in zip(c, c[1:]):
            assert intersect(a.int_class, b.int_class) == 1

    def test_far_apart_disjoint(self):
        c = chain_curves(5)
        for i in range(len(c)):
            for j in range(i + 2, len(c)):
                assert intersect(c[i].int_class, c[j].int_class) == 0

    def test_guard(self):
        with pytest.raises(PreconditionError):
            chain_curves(0)


class TestBuildingBlock:
    def test_length_and_power(self):
        p = korkmaz_cadavid(3)
        assert len(p) == 16
        assert p.boundary_power == 1

    def test_all_spin_values_one_but_parity_fails(self):
        p = korkmaz_cadavid(7)
        cert = check_spin(p, spin_form_all_ones(p.basis))
        assert cert.all_values_one
        assert not cert.power_even
        assert not cert.verdict

    def test_h1(self):
        for g in (3, 5, 7):
            n = (g - 1) // 2
            assert fibration_h1(korkmaz_cadavid(g)).group == AbelianGroup(2 * n)

    def test_even_genus_rejected(self):
        with pytest.raises(PreconditionError):
            korkmaz_cadavid(4)


class TestHyperelliptic:
    def test_length(self):
        u, v = hyperelliptic_factorizations(5)
        assert len(u) == len(v) == 44
        assert u.boundary_power == v.boundary_power == 1

    def test_integral_relation(self):
        u, v = hyperelliptic_factorizations(7)
        assert check_relation(u).integral
        assert check_relation(v).integral

    def test_euler(self):
        for g in (5, 7):
            u, _ = hyperelliptic_factorizations(g)
            assert euler_characteristic(u) == 4 * g + 8

    def test_genus_guard(self):
        with pytest.raises(PreconditionError):
            hyperelliptic_factorizations(4)
        with pytest.raises(PreconditionError):
            hyperelliptic_factorizations(3)


class TestConjugators:
    def test_images(self):
        g = 5
        ch = chain_curves(g)
        w_ab, w_cd = boundary_conjugators(g)
        assert apply_word(w_ab, ch[0].mod2).sparse() == "y3"
        assert apply_word(w_cd, ch[0].mod2).sparse() == "y4+y5"
        assert apply_word(w_cd, ch[2].mod2).sparse() == "y5"

    def test_boundary_sums_to_zero(self):
        a, b, cc, d = subsurface_boundary(7)
        assert (a.mod2 + b.mod2 + cc.mod2 + d.mod2).is_zero()

    def test_boundary_has_integer_classes(self):
        for cur in subsurface_boundary(5):
            assert cur.int_class is not None


class TestPencilImages:
    def test_displayed_values(self):
        image = pencil_images(5)
        q = spin_form_alternating(SurfaceBasis(5))
        by_label = image.interior_by_label
        assert q(by_label["B1'"].mod2) == 1
        assert q(by_label["C"].mod2) == 1
        assert all(q(c.mod2) == 1 for c in image.interior)

    def test_classes_as_displayed(self):
        image = pencil_images(7)
        by_label = image.interior_by_label
        assert by_label["B2"].mod2.sparse() == "y1+y2+y3+y4+y5"
        assert by_label["B0"].mod2.sparse() == "x1+x2+y3+y4"
        assert by_label["C'"].mod2.sparse() == "y5"

    def test_genus_guard(self):
        with pytest.raises(PreconditionError):
            pencil_images(4)


class TestTwistedDouble:
    def test_block_layout(self):
        g = 5
        td = twisted_double(g)
        labels = td.labels()
        start = 4 * g
        assert labels[start:start + 8] == ("a", "b", "c", "d", "a", "b", "c", "d")
        assert len(td) == 16 * g + 8
        assert td.boundary_power == 2

    def test_spin_under_alternating_form(self):
        td = twisted_double(5)
        cert = check_spin(td, spin_form_alternating(td.basis))
        assert cert.verdict


class TestBredFibration:
    def test_corner_invariants(self):
        p, cert = bred_fibration(5, 0)
        assert (cert.invariants.euler, cert.invariants.signature) == (72, -48)
        assert (cert.invariants.chi_h, cert.invariants.c1_squared) == (6, 0)
        assert cert.relation_integral is True

    def test_extremal_point_on_slope_line(self):
        p, cert = bred_fibration(5, 12)
        inv = cert.invariants
        assert (inv.chi_h, inv.c1_squared) == (18, 96)
        assert 3 * inv.c1_squared <= 16 * inv.chi_h  # 288 <= 288
        assert cert.chain_cover_fast_path is None  # no chain curves left to cover

    def test_interior_point(self):
        _, cert = bred_fibration(7, 3)
        assert cert.spin.verdict
        assert cert.h1_mod2_dimension == 0
        assert cert.verdict

    def test_bounds(self):
        with pytest.raises(PreconditionError):
            bred_fibration(5, 13)
        with pytest.raises(PreconditionError):
            bred_fibration(6, 0)

    def test_monotone_lengths(self):
        lengths = []
        for k in range(4):
            p, _ = bred_fibration(5, k, certify=False)
            lengths.append(len(p))
        assert lengths == [88, 92, 96, 100]


class TestChainCoverFastPath:
    @pytest.mark.parametrize("g,k", [(5, 0), (5, 1), (5, 6), (5, 11), (7, 0), (7, 2), (7, 9), (7, 15)])
    def test_matches_back_conjugation(self, g, k):
        p, cert = bred_fibration(g, k)
        # oracle: conjugate all of p back by w_ab^-1 and look for every class of u
        w_ab, _ = boundary_conjugators(g)
        u, _ = hyperelliptic_factorizations(g)
        have = {c.mod2 for c in conjugate(p, w_ab.inverse()).twists}
        assert cert.chain_cover_fast_path == all(c.mod2 in have for c in u.twists)


class TestCurveCatalog:
    def test_bundle(self):
        from mcg_spinlab.constructions import curve_catalog

        cat = curve_catalog(5)
        assert len(cat.chain) == 11
        # B0..B5, a, b
        assert [c.label for c in cat.building_block] == [f"B{i}" for i in range(6)] + ["a", "b"]
        assert cat.pencil.interior_by_label["C"].mod2.sparse() == "y3"
        assert cat.conjugators[0].name == "w_ab"


class TestBredMonotonicity:
    def test_certificate_steps(self):
        g = 5
        prev = None
        for k in range(0, 4):
            _, cert = bred_fibration(g, k)
            if prev is not None:
                assert cert.length == prev.length + 4
                assert cert.invariants.euler == prev.invariants.euler + 4
                assert cert.invariants.signature == prev.invariants.signature
                assert cert.invariants.c1_squared == prev.invariants.c1_squared + 8
            prev = cert


class TestRelatorCurves:
    def test_parity_rule(self):
        from mcg_spinlab.constructions import relator_curves
        from mcg_spinlab.presentations import FinitePresentation

        # normalized relators of odd and even length
        pres = FinitePresentation(("u", "v", "w"), ((1, 2, 3), (1, 2)))
        basis = SurfaceBasis(7, labels="ab")
        q = spin_form_all_ones(basis)
        curves = relator_curves(pres, basis)
        # odd length: class is the plain sum of b's with q = 1
        assert curves[0].label == "R1"
        assert q(curves[0].mod2) == 1
        # even length: sum of b's has q = 0, the corrected class has q = 1
        raw = basis.unit_mod2(basis.y_index(1)) + basis.unit_mod2(basis.y_index(2))
        assert q(raw) == 0
        assert curves[1].label == "R2'"
        assert q(curves[1].mod2) == 1

    def test_bare_sum_parity_matches_length(self):
        basis = SurfaceBasis(11, labels="ab")
        q = spin_form_all_ones(basis)
        for subset in ((1,), (1, 2), (2, 3, 5), (1, 2, 3, 4)):
            cls = basis.zero_mod2()
            for i in subset:
                cls = cls + basis.unit_mod2(basis.y_index(i))
            assert q(cls) == len(subset) % 2


class TestConjugationInvariance:
    def test_spin_verdict_stable_under_q_one_conjugation(self):
        from mcg_spinlab.factorization import Curve, TwistWord, check_relation, check_spin, conjugate

        p = korkmaz_cadavid(5)
        q = spin_form_all_ones(p.basis)
        a2 = p.basis.unit_int(1)
        w = TwistWord.of(Curve("a2", a2.mod2(), a2))
        assert q(a2.mod2()) == 1
        conj = conjugate(p, w)
        assert check_relation(conj).mod2 == check_relation(p).mod2 is True
        assert check_spin(conj, q).verdict == check_spin(p, q).verdict


class TestPrescribedGroup:
    def test_trivial_group(self):
        pres = presentation_from_text("gens: x; rel: x;")
        _, cert = spin_fibration_with_group(pres)
        assert cert.h1.is_trivial()
        assert cert.spin.verdict
        assert cert.verdict

    def test_cyclic_of_order_two(self):
        pres = presentation_from_text("gens: x; rel: x^2;")
        _, cert = spin_fibration_with_group(pres)
        assert cert.h1 == AbelianGroup(0, (2,))
        assert cert.h1_matches

    def test_free_of_rank_two(self):
        pres = presentation_from_text("gens: a b;")
        _, cert = spin_fibration_with_group(pres)
        assert cert.genus == 5
        assert cert.boundary_power == 6
        assert cert.h1 == AbelianGroup(2)
        assert cert.spin.verdict

    def test_parity_padding(self):
        # one relator after normalization stays odd, forcing an extra copy
        pres = presentation_from_text("gens: x; rel: x;")
        _, cert = spin_fibration_with_group(pres)
        assert cert.boundary_power % 2 == 0

    def test_boundary_power_counts_copies(self):
        pres = presentation_from_text("gens: a b;")
        _, cert = spin_fibration_with_group(pres)
        assert cert.boundary_power == cert.copies == cert.genus + 0 + 1

    def test_generator_free_presentation(self):
        from mcg_spinlab.presentations import FinitePresentation

        _, cert = spin_fibration_with_group(FinitePresentation((), ()))
        assert cert.h1.is_trivial()
        assert cert.h1_matches and cert.verdict
