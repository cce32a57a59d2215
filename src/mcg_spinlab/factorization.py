"""Ordered words of positive Dehn twists as first-class data.

A factorization knows its twist curves (homology surrogates), the power of
the boundary twist its lift factors, and a free-text provenance trail.
Operations (conjugation, Hurwitz moves, fiber sums, breeding) are pure and
deterministic; curve labels are display data and never affect the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import gcd
from typing import Optional, Sequence, Union

from .homology import (
    ClassInt,
    ClassMod2,
    IntMatrix,
    Mod2Matrix,
    PreconditionError,
    QuadraticForm,
    SurfaceBasis,
    intersect,
    pairing_vector,
    transvect,
    transvect_inverse,
)

PENCIL_ORDER = ("B0", "B1", "B2", "C", "C'", "B2'", "B1'", "B0'")


@dataclass(frozen=True)
class Curve:
    """A simple closed curve seen through its one homology class.

    ``hclass`` is the ``ClassInt`` when the integer class is known, else the
    ``ClassMod2`` (some catalog curves are only known mod 2).  The views
    ``mod2`` (the reduction of an integer class) and ``int_class`` (None for
    a mod-2 curve) are derived once here and left out of comparisons, so
    curves compare by (label, hclass, nonseparating); labels are for
    certificates only.
    """

    label: str
    hclass: Union[ClassInt, ClassMod2]
    nonseparating: bool = True
    mod2: ClassMod2 = field(init=False, repr=False, compare=False)
    int_class: Optional[ClassInt] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        int_class = self.hclass if isinstance(self.hclass, ClassInt) else None
        mod2 = self.hclass if int_class is None else int_class.mod2()
        object.__setattr__(self, "int_class", int_class)
        object.__setattr__(self, "mod2", mod2)
        if self.nonseparating and mod2.is_zero():
            raise PreconditionError(f"curve {self.label}: nonseparating curve with zero mod-2 class")

    @property
    def basis(self) -> SurfaceBasis:
        return self.hclass.basis

    def relabeled(self, label: str) -> "Curve":
        return Curve(label, self.hclass, self.nonseparating)


def _twist_label(conj_label: str, target_label: str, exponent: int) -> str:
    """Label of the image of a curve under t_c^(+-1), with cancellation.

    ``t[c]^-1(t[c](x))`` and ``t[c](t[c]^-1(x))`` collapse back to ``x`` so
    that inverse Hurwitz moves restore labels exactly.
    """
    inner = f"t[{conj_label}]^-1(" if exponent == 1 else f"t[{conj_label}]("
    if target_label.startswith(inner) and target_label.endswith(")"):
        return target_label[len(inner):-1]
    op = f"t[{conj_label}]" if exponent == 1 else f"t[{conj_label}]^-1"
    return f"{op}({target_label})"


@dataclass(frozen=True)
class TwistWord:
    """Word in twists t_c^(+-1); leftmost letter acts last on curves."""

    letters: tuple[tuple[Curve, int], ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        for c, e in self.letters:
            if e not in (1, -1):
                raise PreconditionError("twist word exponents must be +1 or -1")

    @classmethod
    def of(cls, curve: Curve, power: int = 1) -> "TwistWord":
        if power == 0:
            return cls((), name="id")
        e = 1 if power > 0 else -1
        name = f"t[{curve.label}]" + (f"^{power}" if power not in (1, -1) else ("^-1" if power == -1 else ""))
        return cls(tuple((curve, e) for _ in range(abs(power))), name=name)

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        return TwistWord(self.letters + other.letters)

    def inverse(self) -> "TwistWord":
        letters = tuple((c, -e) for c, e in reversed(self.letters))
        name = None
        if self.name is not None:
            if self.name.endswith("^-1"):
                name = self.name[:-3]
            elif " " in self.name:
                name = f"({self.name})^-1"
            else:
                name = self.name + "^-1"
        return TwistWord(letters, name=name)

    @property
    def display_name(self) -> str:
        if self.name is not None:
            return self.name
        if len(self.letters) == 1:
            c, e = self.letters[0]
            return f"t[{c.label}]" + ("^-1" if e == -1 else "")
        return "w"


def apply_word(word: TwistWord, v):
    """Action of a twist word on a homology class, rightmost letter first."""
    want_int = isinstance(v, ClassInt)
    for curve, e in reversed(word.letters):
        cls = curve.int_class if want_int else curve.mod2
        if cls is None:
            raise PreconditionError(f"curve {curve.label} has no integer class")
        v = transvect(cls, v) if e == 1 else transvect_inverse(cls, v)
    return v


def word_image(word: TwistWord, curve: Curve) -> Curve:
    """Image of a curve under a twist word, labeled ``name(label)``.

    The word is applied once: to the integer class when the curve and every
    letter have one, otherwise to the mod-2 class.
    """
    if not word.letters:
        return curve
    hclass = curve.hclass
    if curve.int_class is not None and any(c.int_class is None for c, _ in word.letters):
        hclass = curve.mod2
    hclass = apply_word(word, hclass)
    if len(word.letters) == 1:
        c, e = word.letters[0]
        return Curve(_twist_label(c.label, curve.label, e), hclass, curve.nonseparating)
    return Curve(f"{word.display_name}({curve.label})", hclass, curve.nonseparating)


@dataclass(frozen=True)
class PositiveFactorization:
    """Ordered product of positive Dehn twists lifting to t_delta^boundary_power."""

    basis: SurfaceBasis
    twists: tuple[Curve, ...]
    boundary_power: int
    provenance: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.boundary_power < 0:
            raise PreconditionError("boundary power must be non-negative")
        if not self.twists:
            raise PreconditionError("a positive factorization needs at least one twist")
        for c in self.twists:
            if c.basis != self.basis:
                raise PreconditionError(f"twist curve {c.label} over wrong basis")

    @property
    def genus(self) -> int:
        return self.basis.genus

    def __len__(self) -> int:
        return len(self.twists)

    def with_note(self, note: str) -> "PositiveFactorization":
        return PositiveFactorization(self.basis, self.twists, self.boundary_power, self.provenance + (note,))

    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.twists)

    def has_integer_classes(self) -> bool:
        return all(c.int_class is not None for c in self.twists)


def conjugate(p: PositiveFactorization, word: TwistWord) -> PositiveFactorization:
    """Entrywise conjugation: every twist curve is replaced by its word image.

    Each distinct curve of p is transported once.
    """
    for curve, _ in word.letters:
        if curve.basis != p.basis:
            raise PreconditionError("conjugating word over wrong basis")
    if not word.letters:
        return p
    images = {c: word_image(word, c) for c in dict.fromkeys(p.twists)}
    twists = tuple(map(images.__getitem__, p.twists))
    note = f"conjugated by {word.display_name}"
    return PositiveFactorization(p.basis, twists, p.boundary_power, p.provenance + (note,))


def hurwitz_move(p: PositiveFactorization, i: int, direction: str) -> PositiveFactorization:
    """Elementary Hurwitz move at 0-based position i.

    right: (t_a, t_b) -> (t_{t_a(b)}, t_a); left is its inverse.  The product
    mapping class, hence every product matrix, is unchanged.
    """
    if not 0 <= i < len(p.twists) - 1:
        raise PreconditionError(f"hurwitz index {i} out of range")
    a, b = p.twists[i], p.twists[i + 1]
    if direction == "right":
        pair = (word_image(TwistWord.of(a), b), a)
    elif direction == "left":
        pair = (b, word_image(TwistWord.of(b, -1), a))
    else:
        raise PreconditionError("direction must be 'left' or 'right'")
    twists = p.twists[:i] + pair + p.twists[i + 2:]
    note = f"hurwitz {direction} at {i}"
    return PositiveFactorization(p.basis, twists, p.boundary_power, p.provenance + (note,))


def fiber_sum(p1: PositiveFactorization, p2: PositiveFactorization, word: Optional[TwistWord] = None) -> PositiveFactorization:
    """Twisted fiber sum p1 . p2^word; boundary powers add."""
    if p1.basis != p2.basis:
        raise PreconditionError("fiber sum requires equal genus and label scheme")
    q2 = conjugate(p2, word) if word is not None else p2
    note = f"fiber sum (conjugator {word.display_name})" if word is not None and word.letters else "fiber sum"
    return PositiveFactorization(
        p1.basis,
        p1.twists + q2.twists,
        p1.boundary_power + p2.boundary_power,
        p1.provenance + q2.provenance + (note,),
    )


@dataclass(frozen=True)
class SubsurfaceImage:
    """Image data of an embedded 4-holed genus-2 subsurface.

    ``boundary`` holds the four boundary images in substitution order;
    ``interior`` the eight pencil curve images in the fixed relation order
    B0 B1 B2 C C' B2' B1' B0'.
    """

    boundary: tuple[Curve, Curve, Curve, Curve]
    interior: tuple[Curve, ...]

    def __post_init__(self) -> None:
        if len(self.interior) != 8:
            raise PreconditionError("a pencil image needs exactly 8 interior curves")
        if tuple(c.label for c in self.interior) != PENCIL_ORDER:
            raise PreconditionError("interior curves must come in the relation order " + " ".join(PENCIL_ORDER))
        bd = self.boundary
        for i in range(4):
            for j in range(i + 1, 4):
                if intersect(bd[i].mod2, bd[j].mod2) != 0:
                    raise PreconditionError("boundary images must be pairwise disjoint in homology")
        total = bd[0].mod2 + bd[1].mod2 + bd[2].mod2 + bd[3].mod2
        if not total.is_zero():
            raise PreconditionError("boundary images must sum to zero mod 2")
        for c in self.interior:
            for b in bd:
                if intersect(c.mod2, b.mod2) != 0:
                    raise PreconditionError(f"interior image {c.label} meets a boundary image")

    @property
    def interior_by_label(self) -> dict[str, Curve]:
        return {c.label: c for c in self.interior}


def boundary_block_occurrences(p: PositiveFactorization, image: SubsurfaceImage) -> list[int]:
    """Start positions of consecutive runs matching the four boundary images.

    Matching is positional and exact by label; a label match with a different
    mod-2 class is an error, not a non-match.
    """
    bd = image.boundary
    out = []
    for i in range(len(p.twists) - 3):
        window = p.twists[i:i + 4]
        if all(w.label == b.label for w, b in zip(window, bd)):
            for w, b in zip(window, bd):
                if w.mod2 != b.mod2:
                    raise PreconditionError(
                        f"entry {w.label} at {i} does not carry the boundary image class"
                    )
            out.append(i)
    return out


def breed(p: PositiveFactorization, at: int, image: SubsurfaceImage) -> PositiveFactorization:
    """Replace the ``at``-th boundary block (0-based) by the eight pencil twists.

    The length grows by 4 and the boundary power is unchanged; the substituted
    subword acts identically on mod-2 homology.
    """
    occurrences = boundary_block_occurrences(p, image)
    if not 0 <= at < len(occurrences):
        raise PreconditionError(
            f"boundary block occurrence {at} not found ({len(occurrences)} available)"
        )
    pos = occurrences[at]
    twists = p.twists[:pos] + image.interior + p.twists[pos + 4:]
    note = f"bred pencil at entry {pos}"
    return PositiveFactorization(p.basis, twists, p.boundary_power, p.provenance + (note,))


@dataclass(frozen=True)
class RelationCheck:
    """Result of multiplying out the transvection matrices of a factorization."""

    mod2: bool
    integral: Optional[bool]  # None when some twist lacks an integer class


def product_matrix_mod2(p: PositiveFactorization) -> Mod2Matrix:
    """Ordered product of the mod-2 transvection matrices.

    Column j of the running product M is one int whose bit i is M[i][j]
    (lanes of width 1).  Each factor is I + c (Jc)^T, so right-multiplying
    by it is the rank-1 update col_j ^= Mc for j in supp Jc, where Mc is
    the XOR of col_i over i in supp c: |supp c| + |supp Jc| int operations
    per twist.  The supports are listed once per distinct class, and the
    columns are transposed into ``Mod2Matrix`` rows at the end.
    """
    n = p.basis.dim
    cols = [1 << j for j in range(n)]
    supports: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    for curve in p.twists:
        bits = curve.mod2.bits
        support = supports.get(bits)
        if support is None:
            jc = ClassMod2(p.basis, pairing_vector(curve.mod2))
            support = supports[bits] = (curve.mod2.support(), jc.support())
        c_support, jc_support = support
        mc = 0
        for i in c_support:
            mc ^= cols[i]
        for j in jc_support:
            cols[j] ^= mc
    rows = [0] * n
    for j, col in enumerate(cols):
        for i in ClassMod2(p.basis, col).support():
            rows[i] |= 1 << j
    return Mod2Matrix(n, tuple(rows))


# Starting lane width W of the packed integer product; it changes no result,
# only how often the lanes widen.
_LANE_BITS = 64


class _Lanes:
    """Signed lanes of width W packed into one int per matrix column.

    A column int is exactly sum_i M[i][j] * 2^(W i).  It decodes uniquely
    while every entry lies in [-2^(W-1), 2^(W-1)), which the product keeps
    by holding every column bound at most ``cap`` = 2^(W-2).  Columns are
    decoded only when the lanes widen and at the final read-out.
    """

    def __init__(self, n: int, width: int) -> None:
        self.n = n
        self.width = width
        self.cap = 1 << (width - 2)
        self.floor = 1 << (width - 32)  # 2^(W/2) at the start width, 2^30 under the cap at any width
        ones = sum(1 << (width * i) for i in range(n))
        self._half = ones << (width - 1)
        self._range_offset = ones * self.floor
        self._range_outside = ~(ones * (2 * self.floor - 1))

    def encode(self, entries: Sequence[int]) -> int:
        step = self.width // 8
        half = 1 << (self.width - 1)
        data = b"".join((e + half).to_bytes(step, "little") for e in entries)
        return int.from_bytes(data, "little") - self._half

    def decode(self, col: int) -> list[int]:
        step = self.width // 8
        half = 1 << (self.width - 1)
        data = (col + self._half).to_bytes(self.n * step, "little")
        return [int.from_bytes(data[k:k + step], "little") - half for k in range(0, len(data), step)]

    def tighten(self, cols: list[int], bound: list[int], idx: Sequence[int]) -> bool:
        """Lower the bounds of columns ``idx`` to ``floor`` = 2^s, s = W - 32; True if any was lowered.

        The range check adds S = sum_i 2^s 2^(W i): when no bit of the sum
        lies outside the low s+1 bits of its lane (which also makes it >= 0),
        every entry is in [-2^s, 2^s).  Bounds stay within the cap, and
        2^(s+1) <= 2^(W-1), so the column and the sum both decode uniquely and
        the check is truthful for every width.  The fixed gap between floor
        and cap keeps widened lanes within twice the entries; a gap growing
        with W, as s = W/2 gives, lets them run to four times.
        """
        lowered = False
        for j in idx:
            if bound[j] > self.floor and not (cols[j] + self._range_offset) & self._range_outside:
                bound[j] = self.floor
                lowered = True
        return lowered

    def widened(self, cols: list[int], bound: list[int]) -> "_Lanes":
        """Lanes of twice the width, every column re-encoded and its bound made exact."""
        wide = _Lanes(self.n, 2 * self.width)
        for j, col in enumerate(cols):
            entries = self.decode(col)
            cols[j], bound[j] = wide.encode(entries), max(map(abs, entries))
        return wide


def product_matrix_int(p: PositiveFactorization) -> IntMatrix:
    """Ordered product of the integer transvection matrices, exactly.

    Column j of the running product M is one int with M[i][j] in lane i
    (see ``_Lanes``).  Each factor is I + c (Jc)^T, so right-multiplying by
    it is the rank-1 update col_j += (Jc)_j Mc for j in supp Jc, with
    Mc = sum_i c_i col_i over i in supp c.  The supports are grouped by
    coefficient once per distinct class, so a twist costs |supp c| +
    |supp Jc| big-int additions and one multiplication per distinct
    coefficient.

    A bound beta_j >= max_i |M[i][j]| per column keeps the lanes exact:
    Mc is bounded by sum |c_i| beta_i and each beta_j grows by |(Jc)_j|
    times that.  While a twist would push a bound past the cap 2^(W-2),
    the involved columns are tightened by the lanes' range check, and when
    that lowers no bound every column is re-encoded into lanes of twice
    the width with exact bounds.  Each widening raises the cap over bounds
    that are exact, so the loop ends.
    """
    if not p.has_integer_classes():
        raise PreconditionError("some twist curve has no integer class")
    n = p.basis.dim
    lanes = _Lanes(n, _LANE_BITS)
    cols = [1 << (lanes.width * j) for j in range(n)]
    bound = [1] * n
    col_at, bound_at = cols.__getitem__, bound.__getitem__
    supports: dict[tuple[int, ...], tuple] = {}
    for curve in p.twists:
        coords = curve.int_class.coords
        support = supports.get(coords)
        if support is None:
            support = supports[coords] = _int_supports(curve.int_class)
        c_groups, jc_groups, jc_support, jc_max = support
        mc_bound = _mc_bound(c_groups, bound_at)
        while max(map(bound_at, jc_support), default=0) + jc_max * mc_bound > lanes.cap:
            if not lanes.tighten(cols, bound, [i for _, idx in c_groups for i in idx] + list(jc_support)):
                lanes = lanes.widened(cols, bound)
            mc_bound = _mc_bound(c_groups, bound_at)
        mc = 0
        for a, idx in c_groups:
            mc += a * sum(map(col_at, idx))
        for b, idx in jc_groups:
            step, rise = b * mc, abs(b) * mc_bound
            for j in idx:
                cols[j] += step
                bound[j] += rise
    return IntMatrix(tuple(zip(*map(lanes.decode, cols))))


def _mc_bound(c_groups, bound_at) -> int:
    """sum_i |c_i| beta_i, a bound on every entry of Mc."""
    return sum(abs(a) * sum(map(bound_at, idx)) for a, idx in c_groups)


def _int_supports(c: ClassInt) -> tuple:
    """(c grouped by coefficient, Jc grouped by coefficient, supp Jc, max |Jc_j|)."""
    jc_groups = _coefficient_groups(pairing_vector(c))
    jc_support = tuple(j for _, idx in jc_groups for j in idx)
    return _coefficient_groups(c.coords), jc_groups, jc_support, max((abs(b) for b, _ in jc_groups), default=0)


def _coefficient_groups(v: Sequence[int]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonzero entries of v as (coefficient, indices holding it) pairs."""
    groups: dict[int, list[int]] = {}
    for i in compress(range(len(v)), v):
        groups.setdefault(v[i], []).append(i)
    return tuple((a, tuple(idx)) for a, idx in groups.items())


def check_relation(p: PositiveFactorization) -> RelationCheck:
    """Is the ordered transvection product the identity (mod 2, and over Z if possible)?

    With integer classes the integer product is formed once and reduced mod 2.
    """
    if p.has_integer_classes():
        product = product_matrix_int(p)
        return RelationCheck(product.mod2().is_identity(), product.is_identity())
    return RelationCheck(product_matrix_mod2(p).is_identity(), None)


@dataclass(frozen=True)
class SpinCertificate:
    """Per-entry q-values plus the boundary power parity gate."""

    entries: tuple[tuple[str, int], ...]
    boundary_power: int

    @property
    def all_values_one(self) -> bool:
        return all(v == 1 for _, v in self.entries)

    @property
    def power_even(self) -> bool:
        return self.boundary_power % 2 == 0

    @property
    def verdict(self) -> bool:
        return self.all_values_one and self.power_even


def check_spin(p: PositiveFactorization, q: QuadraticForm) -> SpinCertificate:
    """Spin criterion for the fibration of p: even boundary power and q = 1 on every entry."""
    if q.basis != p.basis:
        raise PreconditionError("form over wrong basis")
    entries = tuple((c.label, q(c.mod2)) for c in p.twists)
    return SpinCertificate(entries, p.boundary_power)


# --- canonical JSON form -----------------------------------------------------


def factorization_to_dict(p: PositiveFactorization) -> dict:
    d = {
        "genus": p.genus,
        "boundary_power": p.boundary_power,
        "twists": [
            {
                "label": c.label,
                "mod2": c.mod2.sparse(),
                "int": list(c.int_class.coords) if c.int_class is not None else None,
            }
            for c in p.twists
        ],
        "provenance": list(p.provenance),
    }
    if p.basis.labels != "xy":
        d["labels"] = p.basis.labels
    return d


def factorization_from_dict(d: dict) -> PositiveFactorization:
    basis = SurfaceBasis(int(d["genus"]), d.get("labels", "xy"))
    twists = []
    for t in d["twists"]:
        mod2 = hclass = ClassMod2.parse(basis, t["mod2"])
        divisor = 1
        if t.get("int") is not None:
            hclass = ClassInt(basis, tuple(int(a) for a in t["int"]))
            if hclass.mod2() != mod2:
                raise PreconditionError(f"curve {t['label']}: integer class does not reduce to mod-2 class")
            divisor = gcd(*hclass.coords)
        twists.append(Curve(t["label"], hclass))
        if divisor != 1:
            raise PreconditionError(f"curve {t['label']}: integer class is not primitive (gcd {divisor})")
    return PositiveFactorization(
        basis, tuple(twists), int(d["boundary_power"]), tuple(d.get("provenance", ()))
    )
