from dataclasses import replace
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcg_spinlab import constructions
from mcg_spinlab.factorization import Curve, PositiveFactorization, check_relation, check_spin
from mcg_spinlab.homology import ClassInt, PreconditionError, SurfaceBasis, intersect
from mcg_spinlab.presentations import (
    MAX_FIBER_GENUS,
    AbelianGroup,
    FinitePresentation,
    abelianization,
    cokernel,
    fiber_genus,
    fibration_h1,
    is_normalized,
    normalize_presentation,
    presentation_from_text,
    presentation_to_text,
    smith_normal_form,
)
from mcg_spinlab.constructions import (
    GroupCertificate,
    bred_fibration,
    group_certificate,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    spin_fibration_with_group,
    spin_form_all_ones,
)

from .conftest import make_rng


def random_presentation(rng, max_gens=5, max_rels=4, max_len=8):
    n = rng.randint(1, max_gens)
    gens = tuple(f"g{i}" for i in range(1, n + 1))
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        length = rng.randint(0, max_len)
        rels.append(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)))
    return FinitePresentation(gens, tuple(rels))


def sympy_factors(matrix):
    """Nonzero invariant factors from sympy, the test-only oracle."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    return tuple(abs(int(d)) for d in invariant_factors(Matrix(matrix), domain=ZZ) if d)


class TestSmith:
    def test_identity(self):
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)

    def test_two_by_two(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([]) == ()

    def test_ragged_matrix(self):
        with pytest.raises(PreconditionError):
            smith_normal_form([[1, 2], [3]])

    def test_tall_matrix_with_small_entries(self):
        # smallest-pivot elimination pushed the entries of this matrix past
        # 500,000 bits and did not finish; the echelon passes keep them small
        m = [
            [0, 0, -5, -2, -2, 8, -4], [0, 0, 0, 0, 0, 0, 0], [0, 0, -5, -2, -2, 8, -4],
            [-5, -5, -5, -6, -1, 0, 6], [-8, 0, 5, -4, 3, -1, 6], [-9, -7, 1, -8, -2, -1, 13],
            [-1, -5, -7, -5, -4, 1, 5], [-9, -7, 1, -8, -2, -1, 13], [0, 0, 0, 0, 0, 0, 0],
            [-9, -7, 1, -8, -2, -1, 13], [0, 0, -5, -2, -2, 8, -4], [-7, -1, -2, -7, -1, 4, 4],
            [3, 1, -5, 1, -1, -2, -4], [6, 4, -6, 2, 0, 4, -9], [-9, 3, 2, -8, 1, -3, 7],
            [3, -1, -1, 1, -2, 0, 0],
        ]
        assert smith_normal_form(m) == sympy_factors(m)


def random_lattice_rows(rng):
    """A tall integer matrix: combinations of up to n scaled base rows, with zero and duplicate rows."""
    n = rng.randint(1, 8)
    base = []
    for _ in range(rng.randint(0, n)):
        scale = rng.choice((1, 1, 2, 3, 4, 6))
        base.append([scale * rng.randint(-4, 4) for _ in range(n)])
    rows = []
    for _ in range(rng.randint(1, 40)):
        kind = rng.random()
        if kind < 0.1 or not base:
            rows.append([0] * n)
        elif kind < 0.25 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            row = [0] * n
            for b in base:
                k = rng.randint(-2, 2)
                row = [a + k * x for a, x in zip(row, b)]
            rows.append(row)
    return rows, n


def group_from_factors(n, factors):
    """Z^n modulo a lattice with the given nonzero invariant factors."""
    return AbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))


class TestCokernel:
    def test_against_sympy(self):
        rng = make_rng(42)
        torsion = deficient = 0
        for _ in range(150):
            rows, n = random_lattice_rows(rng)
            got = cokernel(rows, n)
            assert got == group_from_factors(n, sympy_factors(rows))
            torsion += bool(got.torsion)
            deficient += len(rows) >= n and got.free_rank > 0
        assert torsion > 20 and deficient > 20

    def test_no_rows_and_zero_rows(self):
        assert cokernel([], 3) == AbelianGroup(3)
        assert cokernel([[0, 0, 0], [0, 0, 0]], 3) == AbelianGroup(3)

    def test_wrong_row_width(self):
        with pytest.raises(PreconditionError):
            cokernel([[1, 2, 3], [4, 5]], 3)
        with pytest.raises(PreconditionError):
            cokernel([[1, 2]], 3)

    def test_genus_33_reference(self):
        # the 1191 x 66 case of <x0,x1,x2 | x0^2, x1^2, x2^2, [x0,x1]>
        text = "gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;"
        p, _ = spin_fibration_with_group(presentation_from_text(text))
        rows = sorted({c.int_class.coords for c in p.twists})
        assert (len(rows), p.basis.dim) == (1191, 66)
        assert cokernel(rows, p.basis.dim) == AbelianGroup(0, (2, 2, 2))


class TestAbelianization:
    def test_surface_group(self):
        g = 3
        gens = tuple(f"x{i}" for i in range(1, g + 1)) + tuple(f"y{i}" for i in range(1, g + 1))
        relator = tuple()
        for i in range(1, g + 1):
            relator += (i, g + i, -i, -(g + i))
        pres = FinitePresentation(gens, (relator,))
        assert abelianization(pres) == AbelianGroup(2 * g)

    def test_cyclic_of_order_two(self):
        pres = presentation_from_text("gens: x; rel: x^2;")
        assert abelianization(pres) == AbelianGroup(0, (2,))

    def test_trivialized_cyclic(self):
        pres = presentation_from_text("gens: c1; rel: c1^2; rel: c1;")
        assert abelianization(pres).is_trivial()

    def test_print_format(self):
        assert str(AbelianGroup(0)) == "0"
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"


class TestNormalization:
    def test_already_normalized_returned_as_is(self):
        pres = presentation_from_text("gens: x; rel: x;")
        assert normalize_presentation(pres) is pres

    def test_square_relator(self):
        pres = presentation_from_text("gens: x; rel: x^2;")
        out = normalize_presentation(pres)
        assert is_normalized(out)
        assert abelianization(out) == abelianization(pres) == AbelianGroup(0, (2,))

    def test_commutator(self):
        pres = presentation_from_text("gens: a b; rel: a b a^-1 b^-1;")
        out = normalize_presentation(pres)
        assert is_normalized(out)
        assert abelianization(out) == AbelianGroup(2)

    def test_checker_conditions(self):
        assert is_normalized(FinitePresentation(("a", "b", "c"), ((1, 2, 3),)))
        assert is_normalized(FinitePresentation(("a", "b", "c"), ((2, 3, 1),)))
        assert not is_normalized(FinitePresentation(("a", "b", "c"), ((2, 1, 3),)))
        assert not is_normalized(FinitePresentation(("a",), ((1, 1),)))
        assert not is_normalized(FinitePresentation(("a",), ((-1,),)))

    def test_random_sample(self):
        rng = make_rng(42)
        for _ in range(100):
            pres = random_presentation(rng)
            out = normalize_presentation(pres)
            assert is_normalized(out)
            assert abelianization(out) == abelianization(pres)


class TestFibrationH1:
    def test_hyperelliptic_simply_connected(self):
        u, _ = hyperelliptic_factorizations(5)
        res = fibration_h1(u)
        assert res.coefficients == "Z"
        assert res.group.is_trivial()

    def test_building_block(self):
        for g in (3, 5, 7):
            res = fibration_h1(korkmaz_cadavid(g))
            assert res.group == AbelianGroup(g - 1)  # Z^(2n) at g = 2n+1

    def test_bred_mod2_fallback(self):
        for k in (1, 12):
            p, _ = bred_fibration(5, k, certify=False)
            res = fibration_h1(p)
            assert res.coefficients == "Z/2"
            assert res.mod2_dimension == 0

    def test_conjugator_classes_span_full_word(self):
        # oracle: the iterated twisted fiber sum, one block per conjugator and
        # a padding copy for an odd relator count.  The Theorem A word is that
        # sum, and the base classes plus the conjugator classes span the same
        # lattice as its entries
        from mcg_spinlab.constructions import relator_curves
        from mcg_spinlab.factorization import TwistWord, fiber_sum

        presentations = [
            presentation_from_text("gens: u v; rel: u v;"),  # one relator: odd, padded
            presentation_from_text("gens: x; rel: x^2;"),  # four relators after normalization: even
            # the genus-33 reference: 17 relators after normalization
            presentation_from_text("gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;"),
            FinitePresentation((), ()),  # generator-free
        ]
        for pres in presentations:
            normalized = normalize_presentation(pres)
            if not normalized.generators:
                normalized = FinitePresentation(("x",), ((1,),))
            g = 2 * len(normalized.generators) + 1
            block = korkmaz_cadavid(g)
            basis = block.basis
            conjugators = [Curve(f"a{i}", basis.unit_int(i - 1)) for i in range(1, g + 1)]
            conjugators += relator_curves(normalized, basis)
            full = block
            for d in conjugators:
                full = fiber_sum(full, block, TwistWord.of(d))
            if len(normalized.relators) % 2 == 1:
                full = fiber_sum(full, block)

            p, cert = spin_fibration_with_group(pres)
            assert p.twists == full.twists  # labels and classes
            assert cert.copies == p.boundary_power == full.boundary_power
            notes = [f"fiber sum (conjugator t[{d.label}])" for d in conjugators]
            notes += ["fiber sum"] * (len(normalized.relators) % 2)
            notes.append(f"prescribed-group fibration over {len(normalized.generators)} generators")
            assert p.provenance == block.provenance + tuple(notes)

            # the identity adds d_c c per conjugator c; every d_c is 1 here, so
            # the conjugator classes themselves complete the block's lattice
            for d in conjugators:
                assert gcd(*(intersect(d.int_class, c.int_class) for c in block.twists)) == 1
            shortcut_rows = sorted({c.int_class.coords for c in block.twists + tuple(conjugators)})
            full_rows = sorted({c.int_class.coords for c in full.twists})
            assert cokernel(shortcut_rows, basis.dim) == cokernel(full_rows, basis.dim)
            assert cokernel(shortcut_rows, basis.dim) == fibration_h1(full).group == cert.h1

    def test_certificate_h1_matches_the_flat_word(self):
        # the certificate's H1 comes from the block lattice; the flat cokernel
        # of every distinct class of the word is the oracle
        rng = make_rng(71)
        groups = []
        while len(groups) < 30:
            pres = random_presentation(rng, max_gens=2, max_rels=4, max_len=5)
            letters = sum(len(rel) for rel in pres.relators)
            if fiber_genus(len(pres.generators), letters, is_normalized(pres)) > 33:
                continue
            p, cert = spin_fibration_with_group(pres)
            assert cert.h1 == fibration_h1(p).group == cert.target
            groups.append(cert.h1)
        assert any(h.torsion for h in groups)
        assert any(h.free_rank for h in groups)


GENUS_33_REFERENCE = "gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;"


def flat_certificate(pres, layout, p):
    """The certificate assembled from the flat word p of ``layout``: the oracle."""
    relation = check_relation(p)
    h1 = fibration_h1(p).group
    target = abelianization(pres)
    return GroupCertificate(
        input_text=presentation_to_text(pres),
        normalized_text=presentation_to_text(layout.normalized),
        genus=p.genus,
        copies=layout.copies,
        length=len(p),
        boundary_power=p.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral,
        spin=check_spin(p, spin_form_all_ones(p.basis)),
        h1=h1,
        target=target,
        h1_matches=h1 == target,
    )


class TestGroupCertificate:
    """``group_certificate`` from the block layout against the flat word's checks."""

    def test_equals_the_flat_certificate(self):
        rng = make_rng(73)
        presentations = [presentation_from_text(GENUS_33_REFERENCE)]
        while len(presentations) < 31:
            pres = random_presentation(rng, max_gens=2, max_rels=4, max_len=5)
            letters = sum(len(rel) for rel in pres.relators)
            if fiber_genus(len(pres.generators), letters, is_normalized(pres)) <= 33:
                presentations.append(pres)
        for pres in presentations:
            p, cert = spin_fibration_with_group(pres)
            flat = flat_certificate(pres, constructions._group_layout(pres), p)
            assert cert.spin.entries == flat.spin.entries
            assert cert == flat == group_certificate(pres)
            assert cert.verdict

    def test_conjugator_with_q_zero(self):
        # q(a1 + a2) = 1 + 1 + <a1, a2> = 0 under the all-ones form, so every
        # entry with odd <v, a1 + a2> flips to 0 and the spin verdict fails
        pres = presentation_from_text("gens: x; rel: x;")
        layout = constructions._group_layout(pres)
        basis = layout.block.basis
        c = Curve("e", ClassInt.from_coeffs(basis, {"a1": 1, "a2": 1}))
        assert spin_form_all_ones(basis)(c.mod2) == 0
        layout = replace(layout, conjugators=layout.conjugators + (c,))
        cert = constructions._layout_certificate(pres, layout, constructions._block_relation(basis.genus))
        flat = flat_certificate(pres, layout, constructions._layout_word(layout))
        assert cert.spin.entries == flat.spin.entries
        assert cert == flat
        flipped = [lab for lab, v in cert.spin.entries if v == 0]
        assert flipped and all(lab.startswith("t[e](") for lab in flipped)
        assert cert.relation_mod2 and cert.relation_integral and not cert.spin.verdict

    def test_block_that_is_not_a_relation(self):
        # one twist is no relation, and nor is its sum with its conjugates:
        # t_u t_{T_c u} t_{T_e u} with u = x1, c = y1 (q = 1), e = x1 + x2 (q = 0)
        basis = SurfaceBasis(2)
        u = Curve("u", ClassInt.from_coeffs(basis, {"x1": 1}))
        c = Curve("c", ClassInt.from_coeffs(basis, {"y1": 1}))
        e = Curve("e", ClassInt.from_coeffs(basis, {"x1": 1, "x2": 1}))
        block = PositiveFactorization(basis, (u,), 1)
        pres = presentation_from_text("gens: x;")
        for pad in (False, True):
            layout = constructions._GroupLayout(normalize_presentation(pres), block, (c, e), pad)
            cert = constructions._layout_certificate(pres, layout, check_relation(block))
            flat = flat_certificate(pres, layout, constructions._layout_word(layout))
            assert cert == flat
            assert (cert.relation_mod2, cert.relation_integral) == (False, False)
            assert not cert.verdict


class TestTextFormat:
    def test_round_trip(self):
        text = "gens: x1 x2; rel: x1 x2 x1^-1 x2^-1;"
        pres = presentation_from_text(text)
        assert presentation_to_text(pres) == text
        assert presentation_from_text(presentation_to_text(pres)) == pres

    def test_errors(self):
        with pytest.raises(PreconditionError):
            presentation_from_text("rel: x;")
        with pytest.raises(PreconditionError):
            presentation_from_text("gens: x; rel: y;")

    @pytest.mark.parametrize(
        "text, genus",
        [
            ("gens: x; rel: x^30;", 65),
            ("gens: x y; rel: x^13 y^-13;", 61),
            (f"gens: {' '.join(f'g{i}' for i in range(32))}; rel: g3 g7 g1;", 65),
        ],
    )
    def test_at_the_genus_limit(self, text, genus):
        pres = presentation_from_text(text)
        assert 2 * len(normalize_presentation(pres).generators) + 1 == genus <= MAX_FIBER_GENUS

    @pytest.mark.parametrize(
        "text",
        [
            "gens: x; rel: x^31;",
            "gens: x; rel: x^100000000000000000000;",
            "gens: x; rel: x^-100000000000000000000 x^0;",
            f"gens: {' '.join(f'g{i}' for i in range(33))};",
        ],
    )
    def test_over_the_genus_limit(self, text):
        with pytest.raises(PreconditionError, match="fiber genus"):
            presentation_from_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            "gens: a; rel: a^1_0;",  # int() reads 10
            "gens: a; rel: a^\u0663;",  # Arabic-Indic three, int() reads 3
            "gens: a; rel: a^\uff12;",  # fullwidth two
            "gens: a; rel: a^+-1;",
            "gens: a; rel: a^-;",
        ],
    )
    def test_bad_exponent(self, text):
        with pytest.raises(PreconditionError, match="bad exponent"):
            presentation_from_text(text)

    @pytest.mark.parametrize("text", ["gens: a; rel: ^3;", "gens: a; rel: a ^-1;"])
    def test_exponent_without_a_name(self, text):
        with pytest.raises(PreconditionError, match="exponent without a generator name"):
            presentation_from_text(text)

    @pytest.mark.parametrize("exponent, letters", [("+2", (1, 1)), ("02", (1, 1)), ("-0", ()), ("-3", (-1, -1, -1))])
    def test_ascii_exponent_spellings(self, exponent, letters):
        assert presentation_from_text(f"gens: a; rel: a^{exponent};").relators == (letters,)


class TestFiberGenus:
    def test_matches_normalization(self):
        rng = make_rng(43)
        for _ in range(200):
            pres = random_presentation(rng)
            letters = sum(len(rel) for rel in pres.relators)
            normalized = normalize_presentation(pres)
            expected = 2 * max(len(normalized.generators), 1) + 1
            assert fiber_genus(len(pres.generators), letters, is_normalized(pres)) == expected

    @pytest.mark.parametrize("text", ["gens: x; rel: x;", "gens: a b;", "gens: x; rel: x^2;", "gens: ;"])
    def test_matches_the_fibration(self, text):
        pres = presentation_from_text(text)
        letters = sum(len(rel) for rel in pres.relators)
        _, cert = spin_fibration_with_group(pres)
        assert fiber_genus(len(pres.generators), letters, is_normalized(pres)) == cert.genus


# parser fuzzing: mostly well-formed presentations whose tokens use declared,
# undeclared and malformed names, exponents that are zero, negative, beyond the
# genus limit or oddly spelled, and stray sections and separators
_EXPONENTS = st.one_of(
    st.integers(-40, 40).map(str),
    st.sampled_from([10**20, -(10**20), 2**63, 2**64 + 1]).map(str),
    st.sampled_from(["", "+2", "02", "-0", "1_0", "x", "--1", "^", "2.0", "\u0663"]),
)
_JUNK = st.sampled_from(["", ":", "foo: x", "gens", "rel:", "gens: y", "rel: x: y"])


@st.composite
def _presentation_texts(draw):
    gens = draw(st.lists(st.sampled_from(["x", "y", "z1", "_a", "B"]), max_size=4))
    names = st.sampled_from(gens + ["w", "1x", "x-y", "", "\u00e9"])
    token = st.one_of(names, st.builds(lambda n, e: f"{n}^{e}", names, _EXPONENTS))
    sections = ["gens: " + " ".join(gens)]
    for _ in range(draw(st.integers(0, 4))):
        space = draw(st.sampled_from([" ", "\n", "\t"]))
        sections.append("rel: " + space.join(draw(st.lists(token, max_size=5))))
    for pos, junk in draw(st.lists(st.tuples(st.integers(0, len(sections)), _JUNK), max_size=2)):
        sections.insert(pos, junk)
    separator = draw(st.sampled_from([";", "; ", ";\n", " ; ", ";;"]))
    return separator.join(sections) + draw(st.sampled_from(["", ";", ";;"]))


def _round_trips_or_refuses(text):
    try:
        pres = presentation_from_text(text)
    except PreconditionError:
        return
    assert presentation_from_text(presentation_to_text(pres)) == pres


class TestTextFuzz:
    @given(_presentation_texts())
    def test_presentation_text(self, text):
        _round_trips_or_refuses(text)

    @given(st.text(alphabet=st.sampled_from(list("gensrl: ;^-0123456789xy_\n")), max_size=60))
    def test_arbitrary_text(self, text):
        _round_trips_or_refuses(text)
