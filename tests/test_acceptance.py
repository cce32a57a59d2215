"""Acceptance gate: every displayed computation the package certifies,
one test per criterion, exact arithmetic throughout."""

from fractions import Fraction

from mcg_spinlab.factorization import apply_word, breed, boundary_block_occurrences, check_relation, check_spin
from mcg_spinlab.homology import ClassMod2, IntMatrix, SurfaceBasis, transvection_matrix
from mcg_spinlab.invariants import (
    GeographyPoint,
    enumerate_region,
    euler_characteristic,
    meyer_cocycle,
    realize,
    signature_endo,
    signature_meyer,
)
from mcg_spinlab.presentations import (
    AbelianGroup,
    abelianization,
    fibration_h1,
    is_normalized,
    normalize_presentation,
    presentation_from_text,
)
from mcg_spinlab.constructions import (
    boundary_conjugators,
    bred_invariants,
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
from .property_suites import ALL_SUITES
from .test_presentations import random_presentation


def report(number, text):
    print(f"ACCEPTANCE {number:>2}: PASS  {text}")


def test_criterion_01_building_block_spin_table():
    for g in (3, 5, 7, 9, 11):
        p = korkmaz_cadavid(g)
        basis = p.basis
        q = spin_form_all_ones(basis)
        cert = check_spin(p, q)
        assert cert.all_values_one, f"g={g}"
        assert len(cert.entries) == 2 * (g + 5)
        # line by line: value = (letters in the class) + (paired handles), mod 2
        n = (g - 1) // 2
        by_label = {c.label: c for c in p.twists}
        assert len(by_label["B0"].mod2.support()) == g  # q(B0) = g = 1
        for k in range(1, n + 2):
            support = set(by_label[f"B{2 * k - 1}"].mod2.support())
            letters = 2 + (g + 2 - 2 * k) if k <= n else 1  # a_k = a_{g+1-k} cancels at k = n+1
            pairs = 2 if k <= n else 0
            assert len(support) == letters
            assert (letters + pairs) % 2 == 1
        for k in range(1, n + 1):
            support = set(by_label[f"B{2 * k}"].mod2.support())
            assert len(support) == 2 + (g - 2 * k)  # a_k, a_{g+1-k}, b_{k+1}..b_{g-k}
            assert (len(support) + 0) % 2 == 1
        assert by_label["a"].mod2 == basis.unit_mod2(basis.x_index(n + 1))
        assert by_label["b"].mod2 == by_label["a"].mod2
    report(1, "odd-genus building block: every monodromy class has q = 1, line by line")


def test_criterion_02_alternating_spin_table():
    displayed = {
        "B0": "x1+x2+y3+y4",        # 1+1+1+0 = 1
        "B0'": "x1+x2+y4+y5",       # 1+1+0+1 = 1
        "B1": "x1+x2+y1+y2+y3+y4+y5",  # 1+1+1+0+1+0+1 (+2) = 1
        "B1'": "x1+x2+y1+y2+y4",    # 1+1+1+0+0 (+2) = 1
        "B2": "y1+y2+y3+y4+y5",     # 1+0+1+0+1 = 1
        "B2'": "y1+y2+y4",          # 1+0+0 = 1
        "C": "y3",
        "C'": "y5",
    }
    for g in (5, 7, 11):
        basis = SurfaceBasis(g)
        q = spin_form_alternating(basis)
        for cur in chain_curves(g):
            assert q(cur.mod2) == 1, f"chain {cur.label} at g={g}"
        image = pencil_images(g)
        for cur in image.interior:
            assert cur.mod2.sparse() == displayed[cur.label], f"{cur.label} at g={g}"
            # recompute the displayed sum: letter values plus paired handles
            support = cur.mod2.support()
            letter_sum = sum(q.values[i] for i in support)
            pairs = sum(1 for i in support if i < g and g + i in support)
            assert (letter_sum + pairs) % 2 == 1
            assert q(cur.mod2) == 1
    report(2, "chain and pencil-image classes all have q = 1 under the alternating form, line by line")


def test_criterion_03_conjugator_claims():
    g = 5
    basis = SurfaceBasis(g)
    ch = chain_curves(g)
    w_ab, w_cd = boundary_conjugators(g)
    assert apply_word(w_ab, ch[0].mod2) == basis.unit_mod2(basis.y_index(3))
    assert apply_word(w_cd, ch[2].mod2) == basis.unit_mod2(basis.y_index(5))

    b2 = ClassMod2.parse(basis, "y1+y2+y3+y4+y5")
    assert b2 == ch[0].mod2 + ch[4].mod2 + ch[8].mod2  # B2 = c1 + c5 + c9

    # the 24-step inverse-conjugator reduction, in one call: the class is
    # fixed in H1, and equals c1 after identifying consecutive chain curves
    preimage = apply_word(w_ab.inverse(), b2)
    assert preimage == b2
    identifications = [ch[i].mod2 + ch[i + 1].mod2 for i in range(2 * g)]
    residue = preimage + ch[0].mod2

    def rank(rows):
        pivots = []
        for r in rows:
            for p in pivots:
                r = min(r, r ^ p)
            if r:
                pivots.append(r)
                pivots.sort(reverse=True)
        return len(pivots)

    base = rank([c.bits for c in identifications])
    assert rank([c.bits for c in identifications] + [residue.bits]) == base
    report(3, "conjugator images and the chain-coordinate reduction of B2")


def test_criterion_04_relation_checks():
    for g in (3, 5, 7, 9, 11):
        r = check_relation(korkmaz_cadavid(g))
        assert r.mod2 and r.integral, f"building block g={g}"
    for g in (5, 7, 9, 11):
        u, v = hyperelliptic_factorizations(g)
        ru, rv = check_relation(u), check_relation(v)
        assert ru.mod2 and ru.integral, f"hyperelliptic g={g}"
        assert rv.mod2 and rv.integral, f"rotated g={g}"
    for g in (5, 7):
        rd = check_relation(twisted_double(g))
        assert rd.mod2 and rd.integral, f"double g={g}"
        image = pencil_images(g)
        p = twisted_double(g)
        for k in range(2 * g + 3):
            r = check_relation(p)
            assert r.mod2, f"bred g={g} k={k}"
            assert (r.integral is True) if k == 0 else (r.integral is None)
            if k < 2 * g + 2:
                occ = boundary_block_occurrences(p, image)
                p = breed(p, len(occ) - 1, image)
    report(4, "all transvection products are the identity (mod 2 and over Z where defined)")


def test_criterion_05_signatures():
    for g in (5, 7):
        u, _ = hyperelliptic_factorizations(g)
        assert signature_endo(u) == -4 * g - 4
        assert signature_meyer(u) == -4 * g - 4
    assert signature_meyer(twisted_double(5)) == -8 * 5 - 8

    rng = make_rng(50)
    samples = 0
    while samples < 200:
        g = rng.randint(1, 3)
        basis = SurfaceBasis(g)

        def rand_symplectic():
            m = IntMatrix.identity(2 * g)
            for _ in range(rng.randint(1, 5)):
                m = m @ transvection_matrix(random_int_class(rng, basis, bound=2, odd=True))
            return m

        a, b, c = rand_symplectic(), rand_symplectic(), rand_symplectic()
        assert meyer_cocycle(a, b) + meyer_cocycle(a @ b, c) == meyer_cocycle(a, b @ c) + meyer_cocycle(b, c)
        samples += 1
    report(5, "Endo and Meyer signatures agree with the known totals; cocycle identity on 200 triples")


def test_criterion_06_invariant_formulas():
    for g in (5, 7, 9):
        image = pencil_images(g)
        p = twisted_double(g)
        for k in range(2 * g + 3):
            inv = bred_invariants(g, k)
            assert inv.euler == euler_characteristic(p) == 12 * (g + 1) + 4 * k
            assert inv.signature == -8 * (g + 1)
            assert inv.chi_h == g + 1 + k
            assert inv.c1_squared == 8 * k
            assert 4 * inv.chi_h == inv.euler + inv.signature
            assert inv.c1_squared == 2 * inv.euler + 3 * inv.signature
            if k < 2 * g + 2:
                occ = boundary_block_occurrences(p, image)
                p = breed(p, len(occ) - 1, image)
    report(6, "e, chi_h, c1^2 formulas for the bred family at g in {5,7,9}, all k")


def test_criterion_07_geography():
    points = enumerate_region(60)
    brute = set()
    for m in range(61):
        for n in range(0, 16 * 60 // 3 + 1):
            if (n - 8 * m) % 16 == 0 and n <= 8 * (m - 6) and Fraction(3 * n) <= Fraction(16 * m):
                brute.add((m, n))
    assert {(p.m, p.n) for p in points} == brute

    by_genus: dict[int, list[tuple[int, GeographyPoint]]] = {}
    for pt in points:
        gk = realize(pt)
        assert gk is not None, f"unrealized admissible point {pt}"
        g, k = gk
        by_genus.setdefault(g, []).append((k, pt))
    for g, entries in sorted(by_genus.items()):
        image = pencil_images(g)
        p = twisted_double(g)
        built = {0: p}
        max_k = max(k for k, _ in entries)
        for k in range(1, max_k + 1):
            occ = boundary_block_occurrences(p, image)
            p = breed(p, len(occ) - 1, image)
            built[k] = p
        for k, pt in entries:
            inv = bred_invariants(g, k)
            assert (inv.chi_h, inv.c1_squared) == (pt.m, pt.n)
            assert euler_characteristic(built[k]) == inv.euler == 12 * (g + 1) + 4 * k
    report(7, f"region up to chi_h = 60 matches brute force; all {len(points)} points realized")


def test_criterion_08_h1_certificates():
    u, _ = hyperelliptic_factorizations(5)
    assert fibration_h1(u).group == AbelianGroup(0)
    for g in (3, 5, 7):
        assert fibration_h1(korkmaz_cadavid(g)).group == AbelianGroup(g - 1)
    for g in (5, 7):
        image = pencil_images(g)
        p = twisted_double(g)
        for k in range(2 * g + 3):
            if k == 0:
                assert fibration_h1(p).group == AbelianGroup(0)
            else:
                res = fibration_h1(p)
                assert res.coefficients == "Z/2" and res.mod2_dimension == 0, f"g={g} k={k}"
            if k < 2 * g + 2:
                occ = boundary_block_occurrences(p, image)
                p = breed(p, len(occ) - 1, image)

    groups = [
        ("gens: x; rel: x;", AbelianGroup(0)),
        ("gens: x;", AbelianGroup(1)),
        ("gens: x; rel: x^2;", AbelianGroup(0, (2,))),
        ("gens: a b; rel: a b a^-1 b^-1;", AbelianGroup(2)),
        ("gens: a b; rel: a^2; rel: b^3; rel: a b a b;", AbelianGroup(0, (2,))),
    ]
    for text, expected in groups:
        pres = presentation_from_text(text)
        _, cert = spin_fibration_with_group(pres)
        assert cert.h1 == expected == cert.target, text
        assert cert.spin.verdict and cert.boundary_power % 2 == 0
    report(8, "H1 certificates: hyperelliptic, building block, bred family, and five sample groups")


def test_criterion_09_normalization():
    rng = make_rng(51)
    for _ in range(500):
        pres = random_presentation(rng)
        out = normalize_presentation(pres)
        assert is_normalized(out)
        assert abelianization(out) == abelianization(pres)
    report(9, "500 random presentations normalize soundly")


def test_criterion_10_property_suites():
    for salt, (name, suite) in enumerate(ALL_SUITES, start=60):
        assert suite(make_rng(salt), 500) == 500
    report(10, "five property suites at 500 random cases each")
