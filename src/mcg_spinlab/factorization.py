"""Ordered words of positive Dehn twists as first-class data.

A factorization knows its twist curves (homology surrogates), the power of
the boundary twist its lift factors, and a free-text provenance trail.
Operations (conjugation, Hurwitz moves, fiber sums, breeding) are pure and
deterministic; curve labels are display data and never affect the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    """A simple closed curve seen through its homology classes.

    Curves compare by (label, mod2, int_class); labels are for certificates
    only.  ``int_class`` is optional since some catalog curves are only known
    mod 2.
    """

    label: str
    mod2: ClassMod2
    int_class: Optional[ClassInt] = None
    nonseparating: bool = True

    def __post_init__(self) -> None:
        if self.int_class is not None:
            if self.int_class.basis != self.mod2.basis:
                raise PreconditionError(f"curve {self.label}: class bases disagree")
            if self.int_class.mod2() != self.mod2:
                raise PreconditionError(f"curve {self.label}: integer class does not reduce to mod-2 class")
        if self.nonseparating and self.mod2.is_zero():
            raise PreconditionError(f"curve {self.label}: nonseparating curve with zero mod-2 class")

    @property
    def basis(self) -> SurfaceBasis:
        return self.mod2.basis

    def relabeled(self, label: str) -> "Curve":
        return Curve(label, self.mod2, self.int_class, self.nonseparating)


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


def twist_image(c: Curve, v: Curve, exponent: int = 1) -> Curve:
    """Image of curve v under the twist along c (exponent +1 or -1)."""
    if exponent not in (1, -1):
        raise PreconditionError("twist exponent must be +1 or -1")
    act = transvect if exponent == 1 else transvect_inverse
    mod2 = act(c.mod2, v.mod2)
    int_class = None
    if v.int_class is not None and c.int_class is not None:
        int_class = act(c.int_class, v.int_class)
    return Curve(_twist_label(c.label, v.label, exponent), mod2, int_class, v.nonseparating)


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
    """Image of a curve under a twist word, labeled ``name(label)``."""
    mod2 = apply_word(word, curve.mod2)
    int_class = None
    if curve.int_class is not None and all(c.int_class is not None for c, _ in word.letters):
        int_class = apply_word(word, curve.int_class)
    if not word.letters:
        return curve
    if len(word.letters) == 1:
        c, e = word.letters[0]
        return Curve(_twist_label(c.label, curve.label, e), mod2, int_class, curve.nonseparating)
    return Curve(f"{word.display_name}({curve.label})", mod2, int_class, curve.nonseparating)


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
    """Entrywise conjugation: every twist curve is replaced by its word image."""
    for curve, _ in word.letters:
        if curve.basis != p.basis:
            raise PreconditionError("conjugating word over wrong basis")
    if not word.letters:
        return p
    twists = tuple(word_image(word, c) for c in p.twists)
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
        pair = (twist_image(a, b, 1), a)
    elif direction == "left":
        pair = (b, twist_image(b, a, -1))
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


def commuting_block_permute(
    p: PositiveFactorization, start: int, end: int, order: Sequence[int]
) -> PositiveFactorization:
    """Permute twists[start:end] by ``order`` (indices into the block).

    Requires every pair of distinct curve classes in the block to intersect
    trivially, so the permutation is a sequence of commuting swaps and the
    product mapping class is preserved.
    """
    if not (0 <= start <= end <= len(p.twists)):
        raise PreconditionError("block out of range")
    block = p.twists[start:end]
    if sorted(order) != list(range(len(block))):
        raise PreconditionError("order must be a permutation of the block")
    distinct: list[Curve] = []
    for c in block:
        if all(c.mod2 != d.mod2 for d in distinct):
            distinct.append(c)
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            if intersect(distinct[i].mod2, distinct[j].mod2) != 0:
                raise PreconditionError("block curves do not commute")
            a, b = distinct[i].int_class, distinct[j].int_class
            if a is not None and b is not None and intersect(a, b) != 0:
                raise PreconditionError("block curves do not commute over Z")
    twists = p.twists[:start] + tuple(block[i] for i in order) + p.twists[end:]
    note = f"permuted commuting block [{start}:{end}]"
    return PositiveFactorization(p.basis, twists, p.boundary_power, p.provenance + (note,))


@dataclass(frozen=True)
class RelationCheck:
    """Result of multiplying out the transvection matrices of a factorization."""

    mod2: bool
    integral: Optional[bool]  # None when some twist lacks an integer class


def product_matrix_mod2(p: PositiveFactorization) -> Mod2Matrix:
    """Ordered product of the mod-2 transvection matrices.

    Each factor is I + c (Jc)^T, so right-multiplication is the rank-1
    update M -> M + (Mc)(Jc)^T, done row by row on the packed rows.
    """
    n = p.basis.dim
    rows = list(Mod2Matrix.identity(n).rows)
    for curve in p.twists:
        c_bits = curve.mod2.bits()
        jc_bits = pairing_vector(curve.mod2)
        for i in range(n):
            if bin(rows[i] & c_bits).count("1") & 1:
                rows[i] ^= jc_bits
    return Mod2Matrix(n, tuple(rows))


def product_matrix_int(p: PositiveFactorization) -> IntMatrix:
    """Ordered product of the integer transvection matrices (rank-1 updates)."""
    if not p.has_integer_classes():
        raise PreconditionError("some twist curve has no integer class")
    n = p.basis.dim
    rows = [list(r) for r in IntMatrix.identity(n).rows]
    for curve in p.twists:
        coords = curve.int_class.coords
        jc = pairing_vector(curve.int_class)
        for row in rows:
            mult = sum(a * b for a, b in zip(row, coords))
            if mult:
                for j in range(n):
                    if jc[j]:
                        row[j] += mult * jc[j]
    return IntMatrix(tuple(tuple(r) for r in rows))


def check_relation(p: PositiveFactorization) -> RelationCheck:
    """Is the ordered transvection product the identity (mod 2, and over Z if possible)?"""
    mod2_ok = product_matrix_mod2(p).is_identity()
    integral: Optional[bool] = None
    if p.has_integer_classes():
        integral = product_matrix_int(p).is_identity()
    return RelationCheck(mod2_ok, integral)


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
        mod2 = ClassMod2.parse(basis, t["mod2"])
        int_class = None
        if t.get("int") is not None:
            int_class = ClassInt(basis, tuple(int(a) for a in t["int"]))
        twists.append(Curve(t["label"], mod2, int_class))
    return PositiveFactorization(
        basis, tuple(twists), int(d["boundary_power"]), tuple(d.get("provenance", ()))
    )
