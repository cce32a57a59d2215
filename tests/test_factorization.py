import json

import pytest

from mcg_spinlab.factorization import (
    Curve,
    _LANE_BITS,
    _Lanes,
    PositiveFactorization,
    RelationCheck,
    SubsurfaceImage,
    TwistWord,
    apply_word,
    boundary_block_occurrences,
    breed,
    check_relation,
    check_spin,
    conjugate,
    factorization_from_dict,
    factorization_to_dict,
    fiber_sum,
    hurwitz_move,
    product_matrix_int,
    product_matrix_mod2,
    word_image,
)
from mcg_spinlab.homology import (
    ClassInt,
    ClassMod2,
    IntMatrix,
    PreconditionError,
    SurfaceBasis,
    intersect,
    transvection_matrix,
)
from mcg_spinlab.presentations import presentation_from_text
from mcg_spinlab.constructions import (
    boundary_conjugators,
    bred_fibration,
    bred_word,
    chain_curves,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    pencil_images,
    spin_fibration_with_group,
    spin_form_all_ones,
    spin_form_alternating,
    twisted_double,
)

from .conftest import make_rng
from .helpers import random_int_class
from .oracles import row_product_int, row_product_mod2


def random_factorization(rng, g=None, length=None):
    g = g or rng.randint(1, 3)
    basis = SurfaceBasis(g)
    length = length or rng.randint(2, 7)
    twists = []
    for i in range(length):
        cls = random_int_class(rng, basis, odd=True)
        twists.append(Curve(f"r{i}", cls))
    return PositiveFactorization(basis, tuple(twists), rng.randint(0, 3))


class TestApplyWord:
    def test_identity_word(self):
        b = SurfaceBasis(3)
        v = ClassMod2.parse(b, "x1+y2")
        assert apply_word(TwistWord(()), v) == v

    def test_first_conjugator_sends_c1_to_y3(self):
        for g in (5, 11):
            ch = chain_curves(g)
            w_ab, _ = boundary_conjugators(g)
            image = apply_word(w_ab, ch[0].mod2)
            assert image.sparse() == "y3"

    def test_second_conjugator_sends_c3_to_y5(self):
        for g in (5, 11):
            ch = chain_curves(g)
            _, w_cd = boundary_conjugators(g)
            assert apply_word(w_cd, ch[2].mod2).sparse() == "y5"

    def test_word_inverse_round_trip(self):
        rng = make_rng(20)
        g = 5
        ch = chain_curves(g)
        w_ab, _ = boundary_conjugators(g)
        for cur in ch:
            v = cur.int_class
            assert apply_word(w_ab.inverse(), apply_word(w_ab, v)) == v


class TestWordImage:
    """One transport per word: the integer class when every class has one."""

    @staticmethod
    def random_word(rng, basis, length):
        letters = tuple(
            (Curve(f"w{i}", random_int_class(rng, basis, bound=2, odd=True)), rng.choice((1, -1)))
            for i in range(length)
        )
        return TwistWord(letters)

    def test_mod2_view_matches_mod2_transport(self):
        rng = make_rng(110)
        for _ in range(60):
            basis = SurfaceBasis(rng.randint(1, 4))
            word = self.random_word(rng, basis, rng.randint(1, 6))
            curve = Curve("c", random_int_class(rng, basis, odd=True))
            image = word_image(word, curve)
            assert image.int_class == apply_word(word, curve.int_class)
            # apply_word on the mod-2 class is the oracle for the derived view
            assert image.mod2 == apply_word(word, curve.mod2)

    def test_mod2_letter_gives_mod2_curve(self):
        rng = make_rng(111)
        for _ in range(30):
            basis = SurfaceBasis(rng.randint(1, 4))
            word = self.random_word(rng, basis, rng.randint(1, 5))
            letters = list(word.letters)
            at = rng.randrange(len(letters) + 1)
            letters.insert(at, (Curve("m", random_int_class(rng, basis, odd=True).mod2()), rng.choice((1, -1))))
            word = TwistWord(tuple(letters))
            curve = Curve("c", random_int_class(rng, basis, odd=True))
            image = word_image(word, curve)
            assert image.int_class is None and image.hclass == image.mod2
            assert image.mod2 == apply_word(word, curve.mod2)

    def test_mod2_curve_stays_mod2(self):
        ch = chain_curves(2)
        curve = Curve("m", ch[0].mod2)
        image = word_image(TwistWord.of(ch[1]), curve)
        assert image.int_class is None
        assert image.mod2 == apply_word(TwistWord.of(ch[1]), ch[0].mod2)


class TestConjugate:
    def test_identity_word_is_noop(self):
        p = korkmaz_cadavid(3)
        assert conjugate(p, TwistWord((), name="id")) == p

    def test_preserves_length_and_power(self):
        p = korkmaz_cadavid(5)
        a1 = p.basis.unit_int(0)
        w = TwistWord.of(Curve("a1", a1))
        q = conjugate(p, w)
        assert len(q) == len(p)
        assert q.boundary_power == p.boundary_power

    def test_spin_values_preserved_by_q_one_conjugator(self):
        p = korkmaz_cadavid(5)
        q = spin_form_all_ones(p.basis)
        a1 = p.basis.unit_int(0)
        assert q(a1.mod2()) == 1
        conj = conjugate(p, TwistWord.of(Curve("a1", a1)))
        assert all(q(c.mod2) == 1 for c in conj.twists)

    def test_rotation_has_same_q_multiset(self):
        u, v = hyperelliptic_factorizations(5)
        q = spin_form_alternating(u.basis)
        mu = sorted(q(c.mod2) for c in u.twists)
        mv = sorted(q(c.mod2) for c in v.twists)
        assert mu == mv


class TestHurwitz:
    def test_right_then_left_restores(self):
        rng = make_rng(21)
        for _ in range(30):
            p = random_factorization(rng)
            i = rng.randrange(len(p) - 1)
            q = hurwitz_move(hurwitz_move(p, i, "right"), i, "left")
            assert q.twists == p.twists

    def test_left_then_right_restores(self):
        rng = make_rng(22)
        for _ in range(30):
            p = random_factorization(rng)
            i = rng.randrange(len(p) - 1)
            q = hurwitz_move(hurwitz_move(p, i, "left"), i, "right")
            assert q.twists == p.twists

    def test_products_invariant(self):
        rng = make_rng(23)
        for _ in range(40):
            p = random_factorization(rng)
            i = rng.randrange(len(p) - 1)
            q = hurwitz_move(p, i, rng.choice(["left", "right"]))
            assert product_matrix_mod2(q) == product_matrix_mod2(p)
            assert product_matrix_int(q) == product_matrix_int(p)

    def test_q_multiset_preserved(self):
        p = korkmaz_cadavid(5)
        q = spin_form_all_ones(p.basis)
        moved = hurwitz_move(p, 3, "right")
        assert sorted(q(c.mod2) for c in moved.twists) == sorted(q(c.mod2) for c in p.twists)

    def test_index_out_of_range(self):
        p = korkmaz_cadavid(3)
        with pytest.raises(PreconditionError):
            hurwitz_move(p, len(p) - 1, "right")


class TestFiberSum:
    def test_boundary_powers_add(self):
        u, v = hyperelliptic_factorizations(5)
        w_ab, w_cd = boundary_conjugators(5)
        p = fiber_sum(conjugate(v, w_ab), u, w_cd)
        assert p.boundary_power == 2
        assert len(p) == 16 * 5 + 8

    def test_empty_conjugator_is_concatenation(self):
        p = korkmaz_cadavid(3)
        s = fiber_sum(p, p)
        assert s.twists == p.twists + p.twists
        assert s.boundary_power == 2

    def test_genus_mismatch(self):
        with pytest.raises(PreconditionError):
            fiber_sum(korkmaz_cadavid(3), korkmaz_cadavid(5))


class TestBreed:
    def test_length_grows_by_four(self):
        for k in (0, 1, 4):
            p = bred_word(5, k)
            assert len(p) == 16 * 5 + 8 + 4 * k

    def test_zero_breeds_is_block_form(self):
        assert bred_word(5, 0) == twisted_double(5)

    def test_mod2_product_still_identity(self):
        for k in (1, 3, 12):
            p = bred_word(5, k)
            assert product_matrix_mod2(p).is_identity()

    def test_occurrence_accounting(self):
        g = 5
        image = pencil_images(g)
        p = twisted_double(g)
        occ = boundary_block_occurrences(p, image)
        assert len(occ) == 2 * g + 2
        bred_once = breed(p, len(occ) - 1, image)
        assert len(boundary_block_occurrences(bred_once, image)) == 2 * g + 1

    def test_missing_occurrence(self):
        p = twisted_double(5)
        image = pencil_images(5)
        with pytest.raises(PreconditionError):
            breed(p, 99, image)


class TestCheckRelation:
    def test_building_blocks(self):
        for g in (3, 5, 7):
            r = check_relation(korkmaz_cadavid(g))
            assert r.mod2 and r.integral

    def test_hyperelliptic(self):
        u, v = hyperelliptic_factorizations(5)
        assert check_relation(u) == check_relation(v)
        assert check_relation(u).integral

    def test_bred_integral_unavailable(self):
        for k in (1, 6, 12):
            p = bred_word(5, k)
            r = check_relation(p)
            assert r.mod2 and r.integral is None

    def test_square_twist_is_relation_mod2_only(self):
        b = SurfaceBasis(1)
        c = Curve("c", ClassInt(b, (1, 0)))
        p = PositiveFactorization(b, (c, c), 0)
        assert check_relation(p) == RelationCheck(mod2=True, integral=False)

    def test_non_relation_detected(self):
        p = korkmaz_cadavid(3)
        truncated = PositiveFactorization(p.basis, p.twists[:-1], 1)
        r = check_relation(truncated)
        assert not r.mod2 and r.integral is False


def _word(basis, classes):
    return PositiveFactorization(
        basis, tuple(Curve(f"c{i}", cls, nonseparating=False) for i, cls in enumerate(classes)), 0
    )


def _random_word(rng, genus, bound, length):
    basis = SurfaceBasis(genus)
    pool = []
    while len(pool) < rng.randint(1, 4):
        cls = random_int_class(rng, basis, bound)
        if not cls.is_zero():
            pool.append(cls)
    return _word(basis, [rng.choice(pool) for _ in range(length)])


def _growth_word(reps):
    # (t_a^3 t_b^3)^reps at genus 3, with a . b = 1: entries grow geometrically
    basis = SurfaceBasis(3)
    a, b = basis.unit_int(basis.x_index(1)), basis.unit_int(basis.y_index(1))
    return _word(basis, ([a] * 3 + [b] * 3) * reps)


def _dense_word(rng, genus, length):
    # every coordinate +-1: Mc sums 2g columns, so bounds outrun the entries
    basis = SurfaceBasis(genus)
    classes = [ClassInt(basis, tuple(rng.choice((1, -1)) for _ in range(basis.dim))) for _ in range(length)]
    return _word(basis, classes)


def _entry_bits(m):
    return max(abs(e).bit_length() for row in m.rows for e in row)


class TestProductMatrixInt:
    def test_against_dense_product(self):
        # seeded words that are not relations, with repeated letters and
        # coefficients up to +-3, against the ordered dense product
        rng = make_rng(70)
        repeated = largest = 0
        for _ in range(40):
            basis = SurfaceBasis(rng.randint(1, 4))
            pool = []
            while len(pool) < rng.randint(1, 4):
                cls = random_int_class(rng, basis)
                if not cls.is_zero():
                    pool.append(cls)
            word = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            twists = tuple(
                Curve(f"c{i}", cls, nonseparating=False) for i, cls in enumerate(word)
            )
            dense = IntMatrix.identity(basis.dim)
            for cls in word:
                dense = dense @ transvection_matrix(cls)
            assert not dense.is_identity()
            assert product_matrix_int(PositiveFactorization(basis, twists, 0)) == dense
            repeated += len(set(word)) < len(word)
            largest = max([largest] + [abs(a) for cls in word for a in cls.coords])
        assert repeated and largest == 3

    def test_genus_33_reference_word(self):
        # thm-a on <x0,x1,x2 | x0^2, x1^2, x2^2, [x0,x1]>: 3952 twists at dim 66
        text = "gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;"
        p, _ = spin_fibration_with_group(presentation_from_text(text))
        assert (len(p), p.basis.dim) == (3952, 66)
        product = product_matrix_int(p)
        assert product == row_product_int(p)
        assert product.is_identity()
        truncated = PositiveFactorization(p.basis, p.twists[:2500], 0)
        assert product_matrix_int(truncated) == row_product_int(truncated)

    @pytest.mark.parametrize("reps, bits", [(60, 167), (120, 334)])
    def test_growth_words(self, reps, bits):
        # entries far beyond 64-bit lanes: 167 bits need the lanes widened
        # twice (to 256 bits), 334 bits three times (to 512 bits)
        p = _growth_word(reps)
        product = product_matrix_int(p)
        assert _entry_bits(product) == bits
        assert product == row_product_int(p)
        dense = IntMatrix.identity(6)
        for curve in p.twists:
            dense = dense @ transvection_matrix(curve.int_class)
        assert product == dense

    def test_random_words_with_large_coefficients(self):
        # negative and large coefficients, long enough words to pass every
        # lane bound; the seeds cover both passing and failing range checks
        rng = make_rng(71)
        widest = 0
        for bound in (1, 3, 50, 10**6):
            for _ in range(25):
                p = _random_word(rng, rng.randint(1, 6), bound, rng.randint(1, 60))
                product = product_matrix_int(p)
                assert product == row_product_int(p)
                widest = max(widest, _entry_bits(product))
        assert widest > 512

    def test_entries_at_every_lane_boundary(self):
        # c = k x1 and d = k y1 at genus 1 give entries of k^2 and k^4 with
        # bounds that are exact, so sweeping k over the powers of two puts
        # entries just below and just above every lane width in turn
        basis = SurfaceBasis(1)
        for e in range(1, 80):
            for k in (2**e - 1, 2**e + 1, -(2**e)):
                c, d = ClassInt(basis, (k, 0)), ClassInt(basis, (0, k))
                for word in ([c], [c, d], [c, d, c], [d, c, c, d]):
                    p = _word(basis, word)
                    assert product_matrix_int(p) == row_product_int(p)

    def test_zero_class_is_an_identity_factor(self):
        basis = SurfaceBasis(2)
        zero, a = basis.zero_int(), basis.unit_int(basis.x_index(1))
        p = _word(basis, [a, zero, a, zero])
        assert product_matrix_int(p) == row_product_int(p) == product_matrix_int(_word(basis, [a, a]))
        assert product_matrix_mod2(p) == row_product_mod2(p)

    def test_needs_integer_classes(self):
        basis = SurfaceBasis(2)
        mod2_only = Curve("m", ClassMod2.parse(basis, "x1+y2"))
        p = PositiveFactorization(basis, (chain_curves(2)[0], mod2_only), 0)
        with pytest.raises(PreconditionError, match="no integer class"):
            product_matrix_int(p)
        assert product_matrix_mod2(p) == row_product_mod2(p)


class TestPackedLanes:
    # the column format under product_matrix_int, checked on its own
    @pytest.mark.parametrize("width", [64, 128])
    def test_range_check_decode_and_widen(self, width):
        lanes = _Lanes(3, width)
        edge, h = 2 ** (width - 2), 2 ** (width - 32)
        assert (lanes.cap, lanes.floor) == (edge, h)
        columns = [
            [0, 0, 0], [h - 1, -h, 1], [-h, h - 1, -h], [h, 0, 0], [0, -h - 1, 0], [1, 2, h],
            [300, 5, -700], [edge, -edge, edge - 1], [-1, -1, -1],
        ]
        for entries in columns:
            col = lanes.encode(entries)
            assert col == sum(e << (width * i) for i, e in enumerate(entries))
            assert lanes.decode(col) == entries
            # the range check lowers the bound to 2^(W-32) exactly when every
            # entry lies in [-2^(W-32), 2^(W-32)); it never decodes
            inside = -h <= min(entries) and max(entries) < h
            bound = [edge]
            assert lanes.tighten([col], bound, [0]) == inside
            assert bound == [h if inside else edge]
            # a bound already at the floor is left as it is
            assert not lanes.tighten([col], bound, [0])
        cols = [lanes.encode(entries) for entries in columns]
        bound = [edge] * len(cols)
        wide = lanes.widened(cols, bound)
        assert wide.width == 2 * width and [wide.decode(col) for col in cols] == columns
        assert bound == [max(map(abs, entries)) for entries in columns]

    @pytest.mark.parametrize(
        "make_word",
        [
            lambda: _growth_word(60),
            lambda: _growth_word(120),
            lambda: _random_word(make_rng(73), 5, 3, 100),
            lambda: _dense_word(make_rng(74), 8, 200),
        ],
        ids=["growth-60", "growth-120", "seeded-coefficients-3", "dense-genus-8"],
    )
    def test_decodes_only_when_widening(self, monkeypatch, make_word):
        # every column is decoded once per widening and once at the read-out,
        # and the last widening found an entry of at least W - 31 bits in
        # lanes of width W, so the final lanes are within twice the entries
        counts = {"decode": 0, "widened": 0}

        def counting(name, method):
            def wrapper(self, *args):
                counts[name] += 1
                return method(self, *args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(_Lanes, name, counting(name, getattr(_Lanes, name)))
        p = make_word()
        product = product_matrix_int(p)
        assert product == row_product_int(p)
        assert counts["widened"] > 0
        assert counts["decode"] == p.basis.dim * (counts["widened"] + 1)
        assert _LANE_BITS << counts["widened"] <= 2 * (_entry_bits(product) + 31)


class TestProductMatrixMod2:
    def test_reduces_the_integer_product(self):
        rng = make_rng(72)
        words = [_growth_word(20), korkmaz_cadavid(5), hyperelliptic_factorizations(5)[1]]
        words += [_random_word(rng, rng.randint(1, 6), 3, rng.randint(1, 40)) for _ in range(60)]
        for p in words:
            assert product_matrix_mod2(p) == product_matrix_int(p).mod2() == row_product_mod2(p)

    def test_bred_words(self):
        # bred words carry mod-2 classes only: the row oracle is the reference
        for g, k in ((5, 1), (5, 3), (7, 16), (9, 2)):
            p = bred_word(g, k)
            assert not p.has_integer_classes()
            assert product_matrix_mod2(p) == row_product_mod2(p)
            truncated = PositiveFactorization(p.basis, p.twists[: len(p) // 2 + 1], 0)
            product = product_matrix_mod2(truncated)
            assert product == row_product_mod2(truncated) and not product.is_identity()


class TestCheckSpin:
    def test_bred_fibration_passes(self):
        p = bred_word(5, 1)
        cert = check_spin(p, spin_form_alternating(p.basis))
        assert cert.verdict and cert.boundary_power == 2

    def test_odd_power_fails_parity(self):
        p = korkmaz_cadavid(5)
        odd = PositiveFactorization(p.basis, p.twists, 3)
        cert = check_spin(odd, spin_form_all_ones(p.basis))
        assert cert.all_values_one and not cert.power_even and not cert.verdict

    def test_single_lift_fails(self):
        u, _ = hyperelliptic_factorizations(5)
        cert = check_spin(u, spin_form_alternating(u.basis))
        assert cert.all_values_one
        assert cert.boundary_power == 1
        assert not cert.verdict


class TestSubsurfaceImage:
    def test_concrete_instance_invariants(self):
        image = pencil_images(5)
        a, b, cc, d = image.boundary
        assert (a.mod2 + b.mod2 + cc.mod2 + d.mod2).is_zero()
        for i, u in enumerate(image.boundary):
            for v in image.boundary[i + 1:]:
                assert intersect(u.mod2, v.mod2) == 0
        for c in image.interior:
            for u in image.boundary:
                assert intersect(c.mod2, u.mod2) == 0

    def test_bad_boundary_rejected(self):
        image = pencil_images(5)
        ch = chain_curves(5)
        with pytest.raises(PreconditionError):
            SubsurfaceImage((ch[0], ch[1], ch[2], ch[3]), image.interior)


class TestDeterminism:
    def test_pipeline_replay_is_bit_identical(self):
        assert bred_fibration(7, 2) == bred_fibration(7, 2)

    def test_from_dict_rejects_int_that_does_not_reduce(self):
        d = {"genus": 1, "boundary_power": 0, "twists": [{"label": "c", "mod2": "x1", "int": [0, 1]}]}
        with pytest.raises(PreconditionError, match="does not reduce"):
            factorization_from_dict(d)
        d["twists"][0]["int"] = [3, 2]
        assert factorization_from_dict(d).twists[0].int_class == ClassInt(SurfaceBasis(1), (3, 2))

    def test_from_dict_rejects_a_non_primitive_int(self):
        d = {"genus": 1, "boundary_power": 0, "twists": [{"label": "c", "mod2": "x1", "int": [3, 0]}]}
        with pytest.raises(PreconditionError, match=r"^curve c: integer class is not primitive \(gcd 3\)$"):
            factorization_from_dict(d)
        d["twists"][0].update(mod2="0", int=[2, 0])
        with pytest.raises(PreconditionError, match="zero mod-2 class"):
            factorization_from_dict(d)

    def test_from_dict_ignores_a_provenance_trail(self):
        # keys the loader does not read, such as a provenance list, are ignored
        p = korkmaz_cadavid(3)
        d = factorization_to_dict(p)
        assert factorization_from_dict({**d, "provenance": ["korkmaz-cadavid building block g=3"]}) == p

    def test_json_round_trip(self):
        words = (
            korkmaz_cadavid(3),
            korkmaz_cadavid(5),
            *hyperelliptic_factorizations(5),
            twisted_double(5),
            bred_word(5, 2),
            bred_word(5, 6),
        )
        for p in words:
            d = factorization_to_dict(p)
            text = json.dumps(d, sort_keys=True)
            q = factorization_from_dict(json.loads(text))
            assert q == p
            assert "provenance" not in d
            assert [c.mod2 for c in q.twists] == [c.mod2 for c in p.twists]
            assert [c.int_class for c in q.twists] == [c.int_class for c in p.twists]
            assert json.dumps(factorization_to_dict(q), sort_keys=True) == text
