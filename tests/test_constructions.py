import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcg_spinlab
from mcg_spinlab import constructions
from mcg_spinlab.factorization import (
    Curve,
    PositiveFactorization,
    RelationCheck,
    TwistWord,
    apply_word,
    boundary_block_occurrences,
    breed,
    check_relation,
    check_spin,
    conjugate,
    fiber_sum,
)
from mcg_spinlab.homology import ClassInt, PreconditionError, SurfaceBasis, intersect
from mcg_spinlab.invariants import euler_characteristic
from mcg_spinlab.presentations import AbelianGroup, cokernel, fibration_h1, presentation_from_text
from mcg_spinlab.constructions import (
    boundary_conjugators,
    bred_fibration,
    bred_invariants,
    bred_word,
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

from .oracles import flat_bred_certificate


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

    @pytest.mark.parametrize("g", [5, 7, 9, 25])
    def test_equals_the_fiber_sum_in_block_order(self, g):
        # oracle: the twisted fiber sum v^{w_ab} u^{w_cd}, whose power block
        # t_a^n t_b^n t_c^n t_d^n is reordered into (t_a t_b t_c t_d)^n with
        # the canonical labels; a, b, c, d are pairwise disjoint over Z
        u, v = hyperelliptic_factorizations(g)
        w_ab, w_cd = boundary_conjugators(g)
        p = fiber_sum(conjugate(v, w_ab), u, w_cd)
        boundary = subsurface_boundary(g)
        for i, x in enumerate(boundary):
            for y in boundary[i + 1:]:
                assert intersect(x.int_class, y.int_class) == 0
        n, start = 2 * g + 2, 4 * g
        powers = p.twists[start:start + 4 * n]
        assert [c.hclass for c in powers] == [b.hclass for b in boundary for _ in range(n)]
        td = twisted_double(g)
        assert td.twists == p.twists[:start] + boundary * n + p.twists[start + 4 * n:]  # labels and classes
        assert td.boundary_power == p.boundary_power == 2

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
        for build in (bred_fibration, bred_word, bred_invariants):
            for g, k in ((5, 13), (5, -1)):
                with pytest.raises(PreconditionError, match="breeding count"):
                    build(g, k)
            for g in (3, 6):
                with pytest.raises(PreconditionError, match="odd genus"):
                    build(g, 0)

    def test_returns_the_word_and_its_invariants(self):
        for g, k in ((5, 0), (5, 7), (9, 20)):
            p, cert = bred_fibration(g, k)
            assert p == bred_word(g, k)
            assert cert.invariants == bred_invariants(g, k)

    def test_monotone_lengths(self):
        lengths = []
        for k in range(4):
            lengths.append(len(bred_word(5, k)))
        assert lengths == [88, 92, 96, 100]

    @pytest.mark.parametrize(
        "g,ks", [(5, range(13)), (7, range(17)), (9, range(21)), (25, (0, 1, 26, 52))]
    )
    def test_splice_matches_iterated_breeds(self, g, ks):
        # oracle: breed at the last boundary block k times, rescanning each time
        image = pencil_images(g)
        p = twisted_double(g)
        for k in range(max(ks) + 1):
            if k in ks:
                q = bred_word(g, k)
                assert q.twists == p.twists  # labels and classes
                assert q.boundary_power == p.boundary_power
            if k < max(ks):
                p = breed(p, len(boundary_block_occurrences(p, image)) - 1, image)


class TestBredInvariants:
    def test_euler_counts_the_built_word(self):
        for g in range(5, 27, 2):
            for k in range(2 * g + 3):
                inv = bred_invariants(g, k)
                assert inv.euler == euler_characteristic(bred_word(g, k)), (g, k)
                assert (inv.signature, inv.signature_method) == (-8 * (g + 1), "paper-formula")


class TestBredCertificateFromPieces:
    def test_equals_the_flat_certificate(self):
        # oracle: relation, spin, H1 and the fast path taken from the flat word
        for g in range(5, 27, 2):
            for k in range(2 * g + 3):
                p, cert = bred_fibration(g, k)
                assert cert == flat_bred_certificate(p), (g, k)

    @pytest.mark.parametrize("k", [0, 3])
    def test_relation_comes_from_the_double(self, monkeypatch, k):
        # every certified double is a relation, so feed one that is not
        monkeypatch.setattr(constructions, "_double_relation", lambda g: RelationCheck(False, False))
        _, cert = bred_fibration(5, k)
        assert cert.relation_mod2 is False
        assert cert.relation_integral is (False if k == 0 else None)
        assert not cert.verdict


class TestChainCoverFastPath:
    @pytest.mark.parametrize("g,k", [(5, 0), (5, 1), (5, 6), (5, 11), (7, 0), (7, 2), (7, 9), (7, 15)])
    def test_matches_back_conjugation(self, g, k):
        p, cert = bred_fibration(g, k)
        # oracle: conjugate all of p back by w_ab^-1 and look for every class of u
        w_ab, _ = boundary_conjugators(g)
        u, _ = hyperelliptic_factorizations(g)
        have = {c.mod2 for c in conjugate(p, w_ab.inverse()).twists}
        assert cert.chain_cover_fast_path == all(c.mod2 in have for c in u.twists)


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
        w = TwistWord.of(Curve("a2", a2))
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


class TestBlockLatticeH1:
    """``_block_lattice_h1`` against the flat cokernel of block + conjugated blocks."""

    @staticmethod
    def flat_h1(block, conjugators):
        twists = block.twists + tuple(t for c in conjugators for t in conjugate(block, TwistWord.of(c)).twists)
        return fibration_h1(PositiveFactorization(block.basis, twists, 0)).group

    def test_conjugator_with_d_two_and_disjoint_conjugator(self):
        # <x1 + x2, y1 + y2> = 2 and <x1 - x2, y1 + y2> = 0, so d_c = 2; x1
        # meets neither block class, so d_c = 0.  Adding c in place of 2c, or
        # adding x1, would give Z + Z/2.
        basis = SurfaceBasis(2)
        u = Curve("u", ClassInt.from_coeffs(basis, {"x1": 1, "x2": 1}))
        v = Curve("v", ClassInt.from_coeffs(basis, {"x1": 1, "x2": -1}))
        block = PositiveFactorization(basis, (u, v), 0)
        c = Curve("c", ClassInt.from_coeffs(basis, {"y1": 1, "y2": 1}))
        disjoint = Curve("e", ClassInt.from_coeffs(basis, {"x1": 1}))
        for conjugators in ([c], [disjoint, c], [c, disjoint]):
            h1 = constructions._block_lattice_h1(block, conjugators)
            assert h1 == self.flat_h1(block, conjugators) == AbelianGroup(1, (2, 2))
        h1 = constructions._block_lattice_h1(block, [disjoint])
        assert h1 == self.flat_h1(block, [disjoint]) == AbelianGroup(2, (2,))

    def test_genus_33_reference_rows(self, monkeypatch):
        seen = []

        def counting_cokernel(rows, n):
            seen.append(len(rows))
            return cokernel(rows, n)

        monkeypatch.setattr(constructions, "cokernel", counting_cokernel)
        pres = presentation_from_text("gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;")
        p, cert = spin_fibration_with_group(pres)
        # the flat cokernel of the word takes one row per distinct twist class
        assert len({t.int_class.coords for t in p.twists}) == 1191
        assert len(seen) == 1 and seen[0] <= 85
        assert cert.h1 == AbelianGroup(0, (2, 2, 2))


def test_importing_the_cli_fills_no_catalog():
    # a fresh interpreter: the cached catalogs are built on first use, not at import
    code = (
        "import json, mcg_spinlab.cli\n"
        "from mcg_spinlab import constructions as c\n"
        "print(json.dumps({n: f.cache_info().currsize for n, f in vars(c).items() if hasattr(f, 'cache_info')}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mcg_spinlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    sizes = json.loads(out)
    assert sorted(sizes) == sorted(n for n, f in vars(constructions).items() if hasattr(f, "cache_info"))
    assert sizes and set(sizes.values()) == {0}
