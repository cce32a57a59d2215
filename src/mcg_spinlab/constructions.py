"""Concrete curve catalogs and the two fibration-building pipelines.

Catalog classes are rebuilt from their defining formulas at construction
time and cross-checked against each other (chain intersections, conjugator
images, subsurface invariants), so a transcription error fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .factorization import (
    Curve,
    PositiveFactorization,
    SubsurfaceImage,
    TwistWord,
    apply_word,
    boundary_block_occurrences,
    breed,
    check_relation,
    check_spin,
    commuting_block_permute,
    conjugate,
    fiber_sum,
    word_image,
    PENCIL_ORDER,
    SpinCertificate,
)
from .homology import (
    ClassInt,
    ClassMod2,
    Mod2Matrix,
    PreconditionError,
    QuadraticForm,
    SurfaceBasis,
    intersect,
    mod2_rank,
    transvection_matrix,
)
from .invariants import FibrationInvariants, invariants_of
from .presentations import (
    AbelianGroup,
    FinitePresentation,
    abelianization,
    fibration_h1,
    normalize_presentation,
    presentation_to_text,
)


def spin_form_all_ones(basis: SurfaceBasis) -> QuadraticForm:
    """The form with q = 1 on every basis vector (used with the odd-genus building block)."""
    return QuadraticForm(basis, (1,) * basis.dim)


def spin_form_alternating(basis: SurfaceBasis) -> QuadraticForm:
    """q(x_i) = 1 for all i, q(y_i) = 1 exactly for odd i."""
    g = basis.genus
    values = tuple([1] * g + [(i + 1) % 2 for i in range(g)])
    return QuadraticForm(basis, values)


# --- the chain of curves ------------------------------------------------------


@lru_cache(maxsize=None)
def chain_curves(g: int) -> tuple[Curve, ...]:
    """The 2g+1 chain curves c_1..c_{2g+1} with integer classes.

    c_{2i} = x_i, c_{2i+1} = y_i - y_{i+1}, c_{2g+1} = y_g; c_1 is oriented
    as -y_1 so that consecutive intersections are all +1.
    """
    if g < 1:
        raise PreconditionError("chain needs genus >= 1")
    basis = SurfaceBasis(g)
    curves = []
    for k in range(1, 2 * g + 2):
        coords = [0] * basis.dim
        if k == 1:
            coords[basis.y_index(1)] = -1
        elif k == 2 * g + 1:
            coords[basis.y_index(g)] = 1
        elif k % 2 == 0:
            coords[basis.x_index(k // 2)] = 1
        else:
            i = (k - 1) // 2
            coords[basis.y_index(i)] = 1
            coords[basis.y_index(i + 1)] = -1
        cls = ClassInt(basis, tuple(coords))
        curves.append(Curve(f"c{k}", cls.mod2(), cls))
    for a, b in zip(curves, curves[1:]):
        if intersect(a.int_class, b.int_class) != 1:
            raise AssertionError("chain catalog: consecutive intersection is not +1")
    return tuple(curves)


# --- odd-genus building block -------------------------------------------------


@lru_cache(maxsize=None)
def korkmaz_cadavid(g: int) -> PositiveFactorization:
    """The odd-genus Korkmaz-Cadavid factorization (t_B0 ... t_Bg t_a^2 t_b^2)^2.

    Lifts to a single boundary twist; 2(g+5) entries.  Integer classes are
    the abelianized curve words (the commutator tails contribute nothing).
    """
    if g < 3 or g % 2 == 0:
        raise PreconditionError("building block needs odd genus >= 3")
    n = (g - 1) // 2
    basis = SurfaceBasis(g, labels="ab")

    # The b-loops of the reference picture pair as b_i . a_i = +1, so their
    # oriented classes are -b_i in a basis with <a_i, b_i> = +1.  Signs are
    # invisible mod 2 but make the word an integral relation.
    def cl(coeffs: dict[str, int]) -> ClassInt:
        signed = {lab: (-c if lab.startswith("b") else c) for lab, c in coeffs.items()}
        return ClassInt.from_coeffs(basis, signed)

    curves: list[Curve] = []
    b0 = cl({f"b{i}": 1 for i in range(1, g + 1)})
    curves.append(Curve("B0", b0.mod2(), b0))
    for m in range(1, g + 1):
        if m % 2 == 1:
            k = (m + 1) // 2
            coeffs = {f"b{i}": 1 for i in range(k, g + 2 - k)}
            coeffs[f"a{k}"] = coeffs.get(f"a{k}", 0) + 1
            coeffs[f"a{g + 1 - k}"] = coeffs.get(f"a{g + 1 - k}", 0) + 1
        else:
            k = m // 2
            coeffs = {f"b{i}": 1 for i in range(k + 1, g + 1 - k)}
            coeffs[f"a{k}"] = coeffs.get(f"a{k}", 0) + 1
            coeffs[f"a{g + 1 - k}"] = coeffs.get(f"a{g + 1 - k}", 0) + 1
        cls = cl(coeffs)
        curves.append(Curve(f"B{m}", cls.mod2(), cls))
    mid = cl({f"a{n + 1}": 1})
    curve_a = Curve("a", mid.mod2(), mid)
    curve_b = Curve("b", mid.mod2(), mid)
    half = tuple(curves) + (curve_a, curve_a, curve_b, curve_b)
    return PositiveFactorization(
        basis, half + half, 1, (f"korkmaz-cadavid building block g={g}",)
    )


# --- hyperelliptic factorizations and the breeding scene ------------------------


@lru_cache(maxsize=None)
def _s_block(g: int) -> tuple[Curve, ...]:
    """The 4g conjugated entries shared by both hyperelliptic factorizations."""
    c = chain_curves(g)
    entries: list[Curve] = []
    for i in range(1, 2 * g + 1):
        entries.append(word_image(TwistWord.of(c[i]), c[i - 1]))
    for i in range(2 * g + 1, 3, -1):
        entries.append(word_image(TwistWord.of(c[i - 2]), c[i - 1]))
    tail = TwistWord.of(c[2], 2 * g + 2)
    entries.append(word_image(TwistWord(tail.letters + ((c[1], 1),), name=f"t[c3]^{2*g+2} t[c2]"), c[2]))
    entries.append(word_image(TwistWord(tail.letters + ((c[0], 1),), name=f"t[c3]^{2*g+2} t[c1]"), c[1]))
    return tuple(entries)


@lru_cache(maxsize=None)
def hyperelliptic_factorizations(g: int) -> tuple[PositiveFactorization, PositiveFactorization]:
    """Two positive factorizations of the identity on Sigma_g (odd g >= 5).

    The first is t_1^{2g+2} t_3^{2g+2} S with S the standard 4g-entry block;
    the second is its cyclic rotation S t_1^{2g+2} t_3^{2g+2}.  Both lift to
    a single boundary twist (both come from blown-up genus-g pencils).
    """
    if g < 5 or g % 2 == 0:
        raise PreconditionError("hyperelliptic factorizations need odd genus >= 5")
    c = chain_curves(g)
    basis = c[0].basis
    powers = tuple([c[0]] * (2 * g + 2) + [c[2]] * (2 * g + 2))
    s = _s_block(g)
    u = PositiveFactorization(basis, powers + s, 1, (f"hyperelliptic factorization g={g}",))
    v = PositiveFactorization(basis, s + powers, 1, (f"rotated hyperelliptic factorization g={g}",))
    return u, v


@lru_cache(maxsize=None)
def boundary_conjugators(g: int) -> tuple[TwistWord, TwistWord]:
    """The two chain words that slide (c_1, c_3) onto the subsurface boundary.

    The first word maps c_1, c_3 to the curves labeled a, b; the second maps
    them to c, d.  Needs the chain up to c_10, so g >= 5.
    """
    if g < 5:
        raise PreconditionError("boundary conjugators need genus >= 5")
    c = chain_curves(g)
    basis = c[0].basis
    a_cls = basis.unit_int(basis.y_index(3))
    d_cls = basis.unit_int(basis.y_index(5))
    curve_a = Curve("a", a_cls.mod2(), a_cls)
    curve_d = Curve("d", d_cls.mod2(), d_cls)

    w_ab_letters: list[tuple[Curve, int]] = [(c[7], 1), (c[6], 1), (c[5], 1), (curve_a, 1)]
    for start in (5, 4, 3, 2, 1):
        w_ab_letters += [(c[start - 1 + j], 1) for j in range(4)]
    w_ab = TwistWord(tuple(w_ab_letters), name="w_ab")

    w_cd_letters: list[tuple[Curve, int]] = [(c[7], 1), (c[8], 1), (c[9], 1), (curve_d, 1)]
    for start in (7, 6, 5, 4, 3, 2, 1):
        w_cd_letters += [(c[start - 1 + j], 1) for j in range(4)]
    w_cd = TwistWord(tuple(w_cd_letters), name="w_cd")

    if apply_word(w_ab, c[0].mod2) != curve_a.mod2:
        raise AssertionError("conjugator catalog: w_ab does not send c_1 to a")
    if apply_word(w_cd, c[2].mod2) != curve_d.mod2:
        raise AssertionError("conjugator catalog: w_cd does not send c_3 to d")
    return w_ab, w_cd


@lru_cache(maxsize=None)
def subsurface_boundary(g: int) -> tuple[Curve, Curve, Curve, Curve]:
    """The four boundary curves a, b, c, d of the embedded 4-holed genus-2 piece."""
    w_ab, w_cd = boundary_conjugators(g)
    ch = chain_curves(g)
    a = word_image(w_ab, ch[0]).relabeled("a")
    b = word_image(w_ab, ch[2]).relabeled("b")
    cc = word_image(w_cd, ch[0]).relabeled("c")
    d = word_image(w_cd, ch[2]).relabeled("d")
    return a, b, cc, d


@lru_cache(maxsize=None)
def pencil_images(g: int) -> SubsurfaceImage:
    """Images of the genus-2 pencil vanishing cycles inside Sigma_g (mod 2).

    The eight interior classes are fixed small combinations of x_1, x_2 and
    y_1..y_5; the boundary images are produced by the chain conjugators.  On
    construction the image relation is checked: the ordered product of the
    eight interior transvections equals the product of the four boundary
    transvections on mod-2 homology.
    """
    if g < 5:
        raise PreconditionError("pencil images need genus >= 5")
    basis = SurfaceBasis(g)
    table = {
        "B0": "x1+x2+y3+y4",
        "B1": "x1+x2+y1+y2+y3+y4+y5",
        "B2": "y1+y2+y3+y4+y5",
        "C": "y3",
        "C'": "y5",
        "B2'": "y1+y2+y4",
        "B1'": "x1+x2+y1+y2+y4",
        "B0'": "x1+x2+y4+y5",
    }
    interior = tuple(Curve(lab, ClassMod2.parse(basis, table[lab])) for lab in PENCIL_ORDER)
    boundary = subsurface_boundary(g)
    image = SubsurfaceImage(boundary, interior)

    lhs = Mod2Matrix.identity(basis.dim)
    for cur in interior:
        lhs = lhs @ transvection_matrix(cur.mod2)
    rhs = Mod2Matrix.identity(basis.dim)
    for cur in boundary:
        rhs = rhs @ transvection_matrix(cur.mod2)
    if lhs != rhs:
        raise AssertionError("pencil catalog: interior product does not match boundary product mod 2")
    return image


@lru_cache(maxsize=None)
def twisted_double(g: int) -> PositiveFactorization:
    """Fiber sum of the two hyperelliptic factorizations, in block form.

    The sum is rearranged so the middle reads (t_a t_b t_c t_d)^{2g+2}, the
    four curves being pairwise disjoint; entries in the power block carry the
    canonical labels a, b, c, d so breeding can match them positionally.
    """
    u, v = hyperelliptic_factorizations(g)
    w_ab, w_cd = boundary_conjugators(g)
    p = fiber_sum(conjugate(v, w_ab), u, w_cd)

    a, b, cc, d = subsurface_boundary(g)
    reps = 2 * g + 2
    start = 4 * g
    end = start + 4 * reps
    relabeled = list(p.twists)
    for slot, canonical in enumerate((a, b, cc, d)):
        for r in range(reps):
            idx = start + slot * reps + r
            old = relabeled[idx]
            if old.mod2 != canonical.mod2 or old.int_class != canonical.int_class:
                raise AssertionError("twisted double: power block entry does not match boundary curve")
            relabeled[idx] = canonical
    p = PositiveFactorization(
        p.basis, tuple(relabeled), p.boundary_power, p.provenance + ("canonical boundary labels",)
    )
    order = [slot * reps + r for r in range(reps) for slot in range(4)]
    return commuting_block_permute(p, start, end, order).with_note(
        f"twisted double g={g} in boundary block form"
    )


@dataclass(frozen=True)
class CurveCatalog:
    """All named curve families at one genus, rebuilt and cross-checked.

    The chain, pencil image and conjugators live over the x/y basis; the
    building-block curves use the a/b display scheme of their own word.
    """

    genus: int
    chain: tuple[Curve, ...]
    building_block: tuple[Curve, ...]
    pencil: SubsurfaceImage
    conjugators: tuple[TwistWord, TwistWord]


def curve_catalog(g: int) -> CurveCatalog:
    """Assemble the full catalog (odd g >= 5; every constructor self-checks)."""
    block = korkmaz_cadavid(g)
    distinct: list[Curve] = []
    for cur in block.twists:
        if cur not in distinct:
            distinct.append(cur)
    return CurveCatalog(
        genus=g,
        chain=chain_curves(g),
        building_block=tuple(distinct),
        pencil=pencil_images(g),
        conjugators=boundary_conjugators(g),
    )


# --- geography pipeline --------------------------------------------------------


@dataclass(frozen=True)
class BredCertificate:
    """Machine checks attached to a bred fibration."""

    g: int
    k: int
    length: int
    boundary_power: int
    relation_mod2: bool
    relation_integral: Optional[bool]
    spin: SpinCertificate
    invariants: FibrationInvariants
    h1_mod2_dimension: int
    chain_cover_fast_path: Optional[bool]
    b2_equals_c1_c5_c9: bool
    b2_preimage_is_c1_in_quotient: bool

    @property
    def verdict(self) -> bool:
        checks = [
            self.relation_mod2,
            self.spin.verdict,
            self.h1_mod2_dimension == 0,
            self.b2_equals_c1_c5_c9,
            self.b2_preimage_is_c1_in_quotient,
        ]
        if self.relation_integral is not None:
            checks.append(self.relation_integral)
        if self.chain_cover_fast_path is not None:
            checks.append(self.chain_cover_fast_path)
        return all(checks)


def _chain_reduction_checks(g: int) -> tuple[bool, bool]:
    """Replay of the curve-chasing identity used for simple connectivity.

    B2 = c1 + c5 + c9 in chain classes, and the w_ab-preimage of B2 equals c1
    in the quotient of H1(Sigma; Z/2) where consecutive chain curves are
    identified.
    """
    basis = SurfaceBasis(g)
    ch = chain_curves(g)
    b2 = ClassMod2.parse(basis, "y1+y2+y3+y4+y5")
    expansion = ch[0].mod2 + ch[4].mod2 + ch[8].mod2
    first = expansion == b2

    w_ab, _ = boundary_conjugators(g)
    preimage = apply_word(w_ab.inverse(), b2)
    identifications = [(ch[i].mod2 + ch[i + 1].mod2).bits() for i in range(2 * g)]
    residue = (preimage + ch[0].mod2).bits()
    span = mod2_rank(identifications)
    second = mod2_rank(identifications + [residue]) == span
    return first, second


def bred_fibration(
    g: int, k: int, certify: bool = True
) -> tuple[PositiveFactorization, Optional[BredCertificate]]:
    """Breed the genus-2 pencil k times into the twisted double (0 <= k <= 2g+2).

    Always breeds at the last remaining boundary block, producing the block
    layout (leading block)(t_a t_b t_c t_d)^{2g+2-k}(pencil)^k(trailing block).
    """
    if g < 5 or g % 2 == 0:
        raise PreconditionError("bred fibrations need odd genus >= 5")
    if not 0 <= k <= 2 * g + 2:
        raise PreconditionError("breeding count must satisfy 0 <= k <= 2g+2")
    p = twisted_double(g)
    image = pencil_images(g)
    for _ in range(k):
        occurrences = boundary_block_occurrences(p, image)
        p = breed(p, len(occurrences) - 1, image)
    p = p.with_note(f"family:bred-fibration g={g} k={k}")
    if not certify:
        return p, None

    relation = check_relation(p)
    spin = check_spin(p, spin_form_alternating(p.basis))
    inv = invariants_of(p, "paper-formula")
    h1 = fibration_h1(p)
    if h1.coefficients == "Z/2":
        h1_dim = h1.mod2_dimension
    else:
        h1_dim = h1.group.free_rank + sum(1 for d in h1.group.torsion if d % 2 == 0)
    fast_path: Optional[bool] = None
    if k < 2 * g + 2:
        # every class of u occurs in p conjugated back by w_ab^-1; w_ab acts
        # bijectively on H1(Sigma; Z/2), so push u forward instead
        w_ab, _ = boundary_conjugators(g)
        u, _ = hyperelliptic_factorizations(g)
        have = {c.mod2 for c in p.twists}
        fast_path = all(apply_word(w_ab, m) in have for m in {c.mod2 for c in u.twists})
    first, second = _chain_reduction_checks(g)
    cert = BredCertificate(
        g=g,
        k=k,
        length=len(p),
        boundary_power=p.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral,
        spin=spin,
        invariants=inv,
        h1_mod2_dimension=h1_dim,
        chain_cover_fast_path=fast_path,
        b2_equals_c1_c5_c9=first,
        b2_preimage_is_c1_in_quotient=second,
    )
    return p, cert


# --- prescribed fundamental group pipeline --------------------------------------


@dataclass(frozen=True)
class GroupCertificate:
    """Machine checks attached to a prescribed-group fibration."""

    input_text: str
    normalized_text: str
    genus: int
    copies: int
    length: int
    boundary_power: int
    relation_mod2: bool
    relation_integral: Optional[bool]
    spin: SpinCertificate
    h1: AbelianGroup
    target: AbelianGroup
    h1_matches: bool

    @property
    def verdict(self) -> bool:
        checks = [self.relation_mod2, self.spin.verdict, self.h1_matches]
        if self.relation_integral is not None:
            checks.append(self.relation_integral)
        return all(checks)


def relator_curves(normalized: FinitePresentation, basis: SurfaceBasis) -> list[Curve]:
    """Homology classes of the embedded relator curves, spin-corrected.

    Relator j maps to the sum of the b-classes of its generators; when that
    class has q = 0 under the all-ones form (even relator length), the class
    of the middle a-curve is resolved in, which always restores q = 1.
    """
    n = len(normalized.generators)
    if basis.genus != 2 * n + 1:
        raise PreconditionError("relator curves need the fiber basis of genus 2n+1")
    form = spin_form_all_ones(basis)
    out: list[Curve] = []
    for j, rel in enumerate(normalized.relators, start=1):
        coords = [0] * basis.dim
        for letter in rel:
            coords[basis.y_index(abs(letter))] += 1 if letter > 0 else -1
        cls = ClassInt(basis, tuple(coords))
        label = f"R{j}"
        if form(cls.mod2()) == 0:
            cls = cls + basis.unit_int(basis.x_index(n + 1))
            label = f"R{j}'"
        out.append(Curve(label, cls.mod2(), cls))
    return out


def spin_fibration_with_group(pres: FinitePresentation) -> tuple[PositiveFactorization, GroupCertificate]:
    """Build a spin factorization whose fibration has H1 = abelianization of pres.

    The input presentation is normalized first; with n generators, the fiber
    genus is 2n+1 and the word is a fiber sum of conjugated building blocks,
    one per a-generator plus one per relator curve (plus one unconjugated
    copy, and one extra copy when the relator count is odd to keep the
    boundary power even).
    """
    normalized = normalize_presentation(pres)
    if not normalized.generators:
        # generator-free presentation of the trivial group; pad by a killed
        # generator so the fiber genus is at least 3 (a Tietze addition)
        normalized = FinitePresentation(("x",), ((1,),))
    n = len(normalized.generators)
    g = 2 * n + 1
    block = korkmaz_cadavid(g)
    basis = block.basis
    form = spin_form_all_ones(basis)

    p = block
    conjugators: list[Curve] = []
    for i in range(1, g + 1):
        a_i = basis.unit_int(basis.x_index(i))
        conjugators.append(Curve(f"a{i}", a_i.mod2(), a_i))
    for curve in conjugators + relator_curves(normalized, basis):
        p = fiber_sum(p, block, TwistWord.of(curve))
    if len(normalized.relators) % 2 == 1:
        p = fiber_sum(p, block)
    copies = 1 + g + len(normalized.relators) + (len(normalized.relators) % 2)
    p = p.with_note(f"prescribed-group fibration over {n} generators")

    relation = check_relation(p)
    spin = check_spin(p, form)
    h1 = fibration_h1(p)
    target = abelianization(pres)
    cert = GroupCertificate(
        input_text=presentation_to_text(pres),
        normalized_text=presentation_to_text(normalized),
        genus=g,
        copies=copies,
        length=len(p),
        boundary_power=p.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral,
        spin=spin,
        h1=h1.group,
        target=target,
        h1_matches=h1.group == target,
    )
    return p, cert
