"""Concrete curve catalogs and the two fibration-building pipelines.

Catalog classes are rebuilt from their defining formulas at construction
time and cross-checked against each other (chain intersections, conjugator
images, subsurface invariants), so a transcription error fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .factorization import (
    Curve,
    PositiveFactorization,
    RelationCheck,
    SubsurfaceImage,
    TwistWord,
    _twist_label,
    apply_word,
    check_relation,
    check_spin,
    conjugate,
    product_matrix_mod2,
    word_image,
    PENCIL_ORDER,
    SpinCertificate,
)
from .homology import (
    ClassInt,
    ClassMod2,
    PreconditionError,
    QuadraticForm,
    SurfaceBasis,
    intersect,
    mod2_rank,
)
from .invariants import FibrationInvariants, invariants_of
from .presentations import (
    AbelianGroup,
    FinitePresentation,
    abelianization,
    cokernel,
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
        curves.append(Curve(f"c{k}", cls))
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
    curves.append(Curve("B0", b0))
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
        curves.append(Curve(f"B{m}", cls))
    mid = cl({f"a{n + 1}": 1})
    curve_a = Curve("a", mid)
    curve_b = Curve("b", mid)
    half = tuple(curves) + (curve_a, curve_a, curve_b, curve_b)
    return PositiveFactorization(
        basis, half + half, 1, (f"korkmaz-cadavid building block g={g}",)
    )


@lru_cache(maxsize=None)
def _block_relation(g: int) -> RelationCheck:
    """The relation check of the genus-g Korkmaz-Cadavid block."""
    return check_relation(korkmaz_cadavid(g))


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
    curve_a = Curve("a", a_cls)
    curve_d = Curve("d", d_cls)

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
def _chain_cover_pushforward(g: int) -> frozenset[ClassMod2]:
    """The distinct mod-2 classes of u pushed forward by w_ab.

    w_ab acts bijectively on H1(Sigma; Z/2), so a word holds every class of u
    conjugated back by w_ab^-1 exactly when it holds all of these.
    """
    w_ab, _ = boundary_conjugators(g)
    u, _ = hyperelliptic_factorizations(g)
    return frozenset(apply_word(w_ab, m) for m in {c.mod2 for c in u.twists})


@lru_cache(maxsize=None)
def subsurface_boundary(g: int) -> tuple[Curve, Curve, Curve, Curve]:
    """The four boundary curves a, b, c, d of the embedded 4-holed genus-2 piece.

    They are pairwise disjoint over Z, so their twists commute.
    """
    w_ab, w_cd = boundary_conjugators(g)
    ch = chain_curves(g)
    a = word_image(w_ab, ch[0]).relabeled("a")
    b = word_image(w_ab, ch[2]).relabeled("b")
    cc = word_image(w_cd, ch[0]).relabeled("c")
    d = word_image(w_cd, ch[2]).relabeled("d")
    boundary = (a, b, cc, d)
    for i, x in enumerate(boundary):
        for y in boundary[i + 1:]:
            if intersect(x.int_class, y.int_class) != 0:
                raise AssertionError("boundary catalog: a, b, c, d are not pairwise disjoint over Z")
    return boundary


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

    lhs = product_matrix_mod2(PositiveFactorization(basis, interior, 0))
    rhs = product_matrix_mod2(PositiveFactorization(basis, boundary, 0))
    if lhs != rhs:
        raise AssertionError("pencil catalog: interior product does not match boundary product mod 2")
    return image


@lru_cache(maxsize=None)
def twisted_double(g: int) -> PositiveFactorization:
    """The twisted fiber sum v^{w_ab} u^{w_cd} of the hyperelliptic factorizations, in block form.

    v ends with, and u starts with, t_1^{2g+2} t_3^{2g+2}; w_ab sends c_1, c_3
    to a, b and w_cd sends them to c, d, so the sum is
    S^{w_ab} (t_a t_b t_c t_d)^{2g+2} S^{w_cd}: the four curves are pairwise
    disjoint, and the power block is written in that commuted order with the
    canonical labels a, b, c, d so breeding can match it positionally.
    """
    u, _ = hyperelliptic_factorizations(g)  # checks the genus
    s = _s_block(g)
    w_ab, w_cd = boundary_conjugators(g)
    twists = (
        tuple(word_image(w_ab, c) for c in s)
        + subsurface_boundary(g) * (2 * g + 2)
        + tuple(word_image(w_cd, c) for c in s)
    )
    return PositiveFactorization(u.basis, twists, 2, (f"twisted double g={g} in boundary block form",))


@lru_cache(maxsize=None)
def _double_relation(g: int) -> RelationCheck:
    """The relation check of the genus-g twisted double."""
    return check_relation(twisted_double(g))


@lru_cache(maxsize=None)
def _double_spin(g: int) -> tuple[tuple[str, int], ...]:
    """The spin entries of the twisted double under the alternating form."""
    p = twisted_double(g)
    return check_spin(p, spin_form_alternating(p.basis)).entries


@lru_cache(maxsize=None)
def _pencil_spin(g: int) -> tuple[tuple[str, int], ...]:
    """The (label, q) entries of the eight pencil curves under the alternating form."""
    q = spin_form_alternating(SurfaceBasis(g))
    return tuple((c.label, q(c.mod2)) for c in pencil_images(g).interior)


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
    identifications = [(ch[i].mod2 + ch[i + 1].mod2).bits for i in range(2 * g)]
    residue = (preimage + ch[0].mod2).bits
    span = mod2_rank(identifications)
    second = mod2_rank(identifications + [residue]) == span
    return first, second


def _bred_cut(g: int, k: int) -> int:
    """Where the k pencils start in the bred word: the trailing block is S conjugated."""
    return len(twisted_double(g)) - len(_s_block(g)) - 4 * k


def _bred_word(g: int, k: int) -> PositiveFactorization:
    """The twisted double with its last k boundary blocks replaced by pencils, in one splice."""
    p = twisted_double(g)
    cut = _bred_cut(g, k)
    twists = p.twists[:cut] + pencil_images(g).interior * k + p.twists[cut + 4 * k:]
    notes = [f"bred pencil at entry {cut + 4 * i}" for i in reversed(range(k))]
    notes.append(f"family:bred-fibration g={g} k={k}")
    return PositiveFactorization(p.basis, twists, p.boundary_power, p.provenance + tuple(notes))


@lru_cache(maxsize=None)
def _bred_class_checks(g: int, k: int) -> tuple[int, Optional[bool]]:
    """h1_mod2_dimension and chain_cover_fast_path of the bred word, from its distinct classes.

    Both depend only on the set of distinct classes, and that set is the
    same for every 0 < k < 2g+2 (every class of the double and of the
    pencil occurs), so ``bred_fibration`` asks with k in {0, 1, 2g+2}.
    """
    p = _bred_word(g, k)
    h1 = fibration_h1(p)
    if h1.coefficients == "Z/2":
        h1_dim = h1.mod2_dimension
    else:
        h1_dim = h1.group.free_rank + sum(1 for d in h1.group.torsion if d % 2 == 0)
    fast_path: Optional[bool] = None
    if k < 2 * g + 2:
        # every class of u occurs in p conjugated back by w_ab^-1
        fast_path = _chain_cover_pushforward(g) <= {c.mod2 for c in p.twists}
    return h1_dim, fast_path


def bred_fibration(
    g: int, k: int, certify: bool = True
) -> tuple[PositiveFactorization, Optional[BredCertificate]]:
    """Breed the genus-2 pencil k times into the twisted double (0 <= k <= 2g+2).

    Breeding at the last boundary block each time leaves earlier entries in
    place, so the word is one splice, with the provenance of k such breeds:
    (leading block)(t_a t_b t_c t_d)^{2g+2-k}(pencil)^k(trailing block).

    The certificate is taken from per-genus pieces, not from the word:
    - relation: with L, T the leading and trailing blocks and B the
      boundary block, the word is L B^{2g+2-k} P^k T and the double is
      L B^{2g+2} T, and P = B mod 2 (checked by ``pencil_images``), so the
      mod-2 check is the double's; the integral check is the double's at
      k = 0 and unavailable otherwise, since the pencil is known only mod 2;
    - spin: the double's and the pencil's entries, spliced as the twists are;
    - H1 and the chain-cover fast path: ``_bred_class_checks``, per genus
      and per class set.
    The chain reduction checks are replayed on every call.  The flat
    ``check_relation``, ``check_spin`` and ``fibration_h1`` of the word agree
    with this and serve as test oracles.
    """
    if g < 5 or g % 2 == 0:
        raise PreconditionError("bred fibrations need odd genus >= 5")
    if not 0 <= k <= 2 * g + 2:
        raise PreconditionError("breeding count must satisfy 0 <= k <= 2g+2")
    p = _bred_word(g, k)
    if not certify:
        return p, None

    relation = _double_relation(g)
    cut = _bred_cut(g, k)
    double_spin = _double_spin(g)
    entries = double_spin[:cut] + _pencil_spin(g) * k + double_spin[cut + 4 * k:]
    h1_dim, fast_path = _bred_class_checks(g, k if k in (0, 2 * g + 2) else 1)
    first, second = _chain_reduction_checks(g)
    cert = BredCertificate(
        g=g,
        k=k,
        length=len(p),
        boundary_power=p.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral if k == 0 else None,
        spin=SpinCertificate(entries, p.boundary_power),
        invariants=invariants_of(p, "paper-formula"),
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
        out.append(Curve(label, cls))
    return out


def _block_lattice_h1(block: PositiveFactorization, conjugators: Sequence[Curve]) -> AbelianGroup:
    """H1 of the word of ``block`` and its conjugates by t_c, one per conjugator c.

    By Picard-Lefschetz, T_c(v) = v + <v, c> c and T_c^-1(v) = v - <v, c> c.
    With L the lattice of the block's classes, <v, c> runs over d_c Z as v
    runs over L, where d_c = gcd{<c, v> : v a block class}, so
    L + T_c(L) = L + d_c Zc, and the same holds for T_c^-1.  The word's
    lattice is therefore L plus one row d_c c per conjugator (none when
    d_c = 0); further unconjugated copies of the block add nothing.
    """
    classes = list(dict.fromkeys(c.int_class for c in block.twists))
    rows = {v.coords for v in classes}
    for c in conjugators:
        d = 0
        for v in classes:
            d = gcd(d, intersect(c.int_class, v))
            if d == 1:
                break
        if d:
            rows.add(c.int_class.scaled(d).coords)
    return cokernel(sorted(rows), block.basis.dim)


@dataclass(frozen=True)
class _GroupLayout:
    """The block layout of a prescribed-group word.

    The word is ``block``, then ``block`` conjugated by t_c for each c in
    ``conjugators``, then one more ``block`` when ``pad`` holds.
    """

    normalized: FinitePresentation
    block: PositiveFactorization
    conjugators: tuple[Curve, ...]
    pad: bool

    @property
    def copies(self) -> int:
        return 1 + len(self.conjugators) + self.pad


def _group_layout(pres: FinitePresentation) -> _GroupLayout:
    """The layout of the word for pres, without building the word.

    With n generators after normalization, the fiber genus is 2n+1, the
    block is the Korkmaz-Cadavid factorization, the conjugators are the
    a-curves and the relator curves, and an odd relator count pads one
    unconjugated block to keep the boundary power even.
    """
    normalized = normalize_presentation(pres)
    if not normalized.generators:
        # generator-free presentation of the trivial group; pad by a killed
        # generator so the fiber genus is at least 3 (a Tietze addition)
        normalized = FinitePresentation(("x",), ((1,),))
    g = 2 * len(normalized.generators) + 1
    block = korkmaz_cadavid(g)
    basis = block.basis
    conjugators = [Curve(f"a{i}", basis.unit_int(basis.x_index(i))) for i in range(1, g + 1)]
    conjugators += relator_curves(normalized, basis)
    return _GroupLayout(normalized, block, tuple(conjugators), len(normalized.relators) % 2 == 1)


def _layout_word(layout: _GroupLayout) -> PositiveFactorization:
    """The flat word of a layout: its blocks concatenated once; boundary powers add."""
    block = layout.block
    words = [TwistWord.of(c) for c in layout.conjugators]
    summands = [block] + [conjugate(block, w) for w in words] + [block] * layout.pad
    notes = [f"fiber sum (conjugator {w.display_name})" for w in words] + ["fiber sum"] * layout.pad
    notes.append(f"prescribed-group fibration over {len(layout.normalized.generators)} generators")
    return PositiveFactorization(
        block.basis,
        tuple(c for q in summands for c in q.twists),
        sum(q.boundary_power for q in summands),
        block.provenance + tuple(notes),
    )


def _layout_spin(layout: _GroupLayout, form: QuadraticForm) -> SpinCertificate:
    """The spin certificate of the layout's word, entry for entry, without building it.

    Mod 2, q(T_c v) = q(v) + <v, c>(q(c) + 1): T_c v is v when <v, c> = 0
    and v + c otherwise, and q(v + c) = q(v) + q(c) + <v, c>.  The values
    are taken once per distinct block class and conjugator; each conjugated
    entry is labeled as ``conjugate`` labels it.
    """
    block = layout.block
    index: dict[ClassMod2, int] = {}
    slots = [index.setdefault(t.mod2, len(index)) for t in block.twists]
    q = [form(v) for v in index]
    head = tuple((t.label, q[k]) for t, k in zip(block.twists, slots))
    entries = list(head)
    for c in layout.conjugators:
        flip = form(c.mod2) ^ 1
        image = [qv ^ (intersect(v, c.mod2) & flip) for v, qv in zip(index, q)]
        entries += [(_twist_label(c.label, t.label, 1), image[k]) for t, k in zip(block.twists, slots)]
    entries += head * layout.pad
    return SpinCertificate(tuple(entries), layout.copies * block.boundary_power)


def _layout_certificate(
    pres: FinitePresentation, layout: _GroupLayout, relation: RelationCheck
) -> GroupCertificate:
    """The certificate of the layout's word, given the relation check of its block."""
    block = layout.block
    h1 = _block_lattice_h1(block, layout.conjugators)
    target = abelianization(pres)
    return GroupCertificate(
        input_text=presentation_to_text(pres),
        normalized_text=presentation_to_text(layout.normalized),
        genus=block.genus,
        copies=layout.copies,
        length=layout.copies * len(block),
        boundary_power=layout.copies * block.boundary_power,
        relation_mod2=relation.mod2,
        relation_integral=relation.integral,
        spin=_layout_spin(layout, spin_form_all_ones(block.basis)),
        h1=h1,
        target=target,
        h1_matches=h1 == target,
    )


def group_certificate(pres: FinitePresentation) -> GroupCertificate:
    """The certificate of ``spin_fibration_with_group(pres)``, from its block layout alone.

    The flat word is never built or multiplied:
    - relation: for symplectic Phi, Phi T_v Phi^-1 = T_{Phi v}, so a block
      conjugated by T_c multiplies to T_c P T_c^-1, with P the block's
      product.  When P = I over Z, and so also mod 2, every summand is I,
      the word is a relation and the boundary powers add.  The block's own
      check is taken once per genus (the Korkmaz-Cadavid block is a
      relation over Z at every genus; a block that is not would be
      reported as no relation);
    - spin: mod 2, q(T_c v) = q(v) + <v, c>(q(c) + 1) for every entry, so
      the entries equal those of ``check_spin`` on the word for any
      conjugator, whatever q(c) is (``_layout_spin``);
    - H1: the block's classes plus d_c c per conjugator c
      (``_block_lattice_h1``), the lattice of every class of the word.
    The length is copies x len(block) and the boundary power is copies.
    """
    layout = _group_layout(pres)
    return _layout_certificate(pres, layout, _block_relation(layout.block.genus))


def spin_fibration_with_group(pres: FinitePresentation) -> tuple[PositiveFactorization, GroupCertificate]:
    """Build a spin factorization whose fibration has H1 = abelianization of pres.

    The input presentation is normalized first; with n generators, the fiber
    genus is 2n+1 and the word is one concatenation of building blocks: an
    unconjugated block, one block conjugated by t_c per a-curve and relator
    curve c, and one more unconjugated block when the relator count is odd
    to keep the boundary power even.  Its boundary power is the number of
    blocks.

    The certificate is ``group_certificate(pres)``, taken from the block
    layout and not from the returned word, by two identities: for
    symplectic Phi, Phi T_v Phi^-1 = T_{Phi v}, so each conjugated block
    multiplies to T_c P T_c^-1 and is I when the block's product P is; and
    mod 2, q(T_c v) = q(v) + <v, c>(q(c) + 1), which gives every spin entry.
    H1 is the block's lattice plus d_c c per conjugator c.  The flat
    ``check_relation``, ``check_spin`` and ``fibration_h1`` of the word
    agree with it and serve as test oracles.
    """
    return _layout_word(_group_layout(pres)), group_certificate(pres)
