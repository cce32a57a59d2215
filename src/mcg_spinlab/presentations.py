"""Finite presentations, Smith normal form, and H1 certificates.

The Smith normal form is hand-rolled so the result is deterministic, and it
returns only the invariant factors: no unimodular transform is built.  It
alternates row and column echelon passes (Kannan-Bachem) that keep only the
pivot rows, reduced so the entries stay small.  A cokernel is one Smith
normal form of its rows; the first row pass already cuts a tall matrix down
to at most n rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .homology import PreconditionError, mod2_rank


@dataclass(frozen=True)
class FinitePresentation:
    """Generators by name; relators as tuples of signed 1-based generator indices."""

    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise PreconditionError("duplicate generator names")
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > n:
                    raise PreconditionError(f"relator letter {letter} out of range")


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus invariant factors d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise PreconditionError("free rank must be non-negative")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise PreconditionError("torsion coefficients must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise PreconditionError("torsion coefficients must be >= 2")

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# --- Smith normal form ---------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an integer matrix, all d_i > 0.

    The rank is the length of the tuple.  Row echelon passes on the matrix
    and on its transpose alternate until it is diagonal (Kannan-Bachem); each
    pass keeps only its pivot rows, reduced so the entries stay small.  A gcd
    step per pair of diagonal entries then turns the diagonal into the
    divisibility chain.  Deterministic.
    """
    m = [list(map(int, row)) for row in matrix]
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise PreconditionError("ragged matrix")
    m = _echelon(m)
    while _off_diagonal(m):
        m = _echelon([list(col) for col in zip(*m)])
    d = [row[i] for i, row in enumerate(m)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            # diag(a, b) and diag(gcd, lcm) have the same cokernel
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d)


def _off_diagonal(m: list[list[int]]) -> bool:
    return any(a for i, row in enumerate(m) for j, a in enumerate(row) if i != j)


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """Pivot rows, in column order, of an echelon form of rows by unimodular row operations.

    The pivot rows span the same lattice as ``rows``; rows that end up zero
    are dropped.  Each row is cleared column by column against the pivot row
    of that column by Euclidean subtract-and-swap, which leaves the gcd in
    the pivot row; a row that reaches a column without a pivot row becomes
    one.  A new or changed pivot row gets a positive pivot and is reduced
    modulo the later pivots, which keeps the entries small.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        for j in range(len(row)):
            if not row[j]:
                continue
            top = pivots.get(j)
            if top is None:
                pivots[j] = _reduced_pivot_row(row, j, pivots)
                break
            changed = False
            while True:
                q = row[j] // top[j]
                row = [a - q * b for a, b in zip(row, top)]
                if not row[j]:
                    break
                top, row = row, top
                changed = True
            if changed:
                pivots[j] = _reduced_pivot_row(top, j, pivots)
    return [pivots[j] for j in sorted(pivots)]


def _reduced_pivot_row(row: list[int], j: int, pivots: dict[int, list[int]]) -> list[int]:
    if row[j] < 0:
        row = [-a for a in row]
    for k in sorted(pivots):
        if k > j:
            q = row[k] // pivots[k][k]
            if q:
                row = [a - q * b for a, b in zip(row, pivots[k])]
    return row


def cokernel(rows: Sequence[Sequence[int]], n: int) -> AbelianGroup:
    """Z^n modulo the lattice spanned by the given row vectors."""
    if any(len(r) != n for r in rows):
        raise PreconditionError("row length does not match rank")
    f = smith_normal_form(rows)
    return AbelianGroup(n - len(f), tuple(d for d in f if d > 1))


def abelianization(pres: FinitePresentation) -> AbelianGroup:
    """Smith normal form of the relator exponent matrix."""
    n = len(pres.generators)
    rows = []
    for rel in pres.relators:
        row = [0] * n
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return cokernel(rows, n)


# --- normalization (positive, once-per-generator, cyclically ordered) ----------


def is_normalized(pres: FinitePresentation) -> bool:
    """Checker for the three normal form conditions.

    (i) every relator is positive, (ii) no generator repeats inside a
    relator, (iii) read cyclically from its smallest index, every relator
    lists generators in increasing order.
    """
    return all(_is_normal_relator(rel) for rel in pres.relators)


def _is_normal_relator(rel: tuple[int, ...]) -> bool:
    if any(letter < 0 for letter in rel):
        return False
    if len(set(rel)) != len(rel):
        return False
    if rel:
        start = rel.index(min(rel))
        rotated = rel[start:] + rel[:start]
        if any(a >= b for a, b in zip(rotated, rotated[1:])):
            return False
    return True


def fiber_genus(generators: int, letters: int, normalized: bool) -> int:
    """Fiber genus of the prescribed-group fibration of a presentation.

    The fibration over n normalized generators has genus 2n + 1, with n at
    least 1.  Normalizing adds an inverse per generator and a fresh generator
    per relator letter, so a presentation that is not yet normalized, with
    the given generator and total relator letter counts, gets
    2(2n + sum |r_i|) + 1.
    """
    if normalized:
        return 2 * max(generators, 1) + 1
    return 2 * (2 * generators + letters) + 1


def _fresh_name(base: str, used: set[str]) -> str:
    name = base
    k = 0
    while name in used:
        k += 1
        name = f"{base}{k}"
    used.add(name)
    return name


def normalize_presentation(pres: FinitePresentation) -> FinitePresentation:
    """Tietze-rewrite a presentation into the positive normal form.

    Already-normalized input is returned unchanged.  Otherwise: (1) add a
    formal inverse generator per original generator with defining relator
    x xbar, (2) rewrite relators positively through the inverses, (3) per
    relator introduce one fresh generator per letter, linked by a positive
    two-letter relator to the inverse of that letter, and replace the relator
    by the fresh generators in index order.  Every step is a Tietze
    transformation, so the presented group (hence its abelianization) is
    preserved.
    """
    if is_normalized(pres):
        return pres
    n = len(pres.generators)
    used = set(pres.generators)
    names = list(pres.generators)
    for i in range(1, n + 1):
        names.append(_fresh_name(pres.generators[i - 1] + "_i", used))
    relators: list[tuple[int, ...]] = []
    for i in range(1, n + 1):
        relators.append((i, n + i))

    link_target = {}
    for i in range(1, n + 1):
        link_target[i] = n + i      # inverse of x_i is xbar_i
        link_target[n + i] = i      # inverse of xbar_i is x_i

    for rel in pres.relators:
        positive = [letter if letter > 0 else n + (-letter) for letter in rel]
        fresh: list[int] = []
        for letter in positive:
            names.append(_fresh_name("z", used))
            z = len(names)
            fresh.append(z)
            relators.append((z, link_target[letter]))
        relators.append(tuple(fresh))
    return FinitePresentation(tuple(names), tuple(relators))


# --- H1 of fibration total spaces ----------------------------------------------


@dataclass(frozen=True)
class H1Result:
    """First homology of a fibration total space.

    ``coefficients`` is "Z" when every vanishing cycle had an integer class,
    else "Z/2" and only the dimension is reported.
    """

    coefficients: str
    group: Optional[AbelianGroup] = None
    mod2_dimension: Optional[int] = None


def fibration_h1(p) -> H1Result:
    """H1 of the total space: Z^(2g) modulo the span of the vanishing cycles.

    Duplicate rows are removed before the cokernel; when some twist lacks
    an integer class the computation falls back to mod-2 coefficients with
    an explicit marker.
    """
    n = p.basis.dim
    if p.has_integer_classes():
        rows = sorted({c.int_class.coords for c in p.twists})
        return H1Result("Z", group=cokernel(rows, n))
    bits = sorted({c.mod2.bits for c in p.twists})
    return H1Result("Z/2", mod2_dimension=n - mod2_rank(bits))


# --- text format ----------------------------------------------------------------


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Presentation files, the family commands, thm-b and script bases refuse a
# larger fiber genus.  thm-a never builds its word, so for it the limit is
# cheap (0.09 s and 23 MiB at genus 65, 2 cores, Python 3.11); what it still
# bounds are the flat words of the family commands, thm-b and scripts: at
# genus 65 the relation check and H1 of the twisted double take 0.15 s, its
# Meyer signature 28 s.
MAX_FIBER_GENUS = 65


def check_fiber_genus(genus: int, message: str = "genus {} is above the limit {}") -> None:
    """Refuse a fiber genus above ``MAX_FIBER_GENUS`` before anything is built.

    ``message`` is formatted with the genus and the limit.
    """
    if genus > MAX_FIBER_GENUS:
        raise PreconditionError(message.format(genus, MAX_FIBER_GENUS))


def presentation_from_text(text: str) -> FinitePresentation:
    """Parse ``gens: x1 x2; rel: x1 x2 x1^-1 x2^-1;`` (one rel section per relator).

    ``x^k`` stands for k letters x, or |k| letters x^-1 when k < 0; k is an
    optional sign followed by ASCII digits.  Text whose fibration would
    exceed ``MAX_FIBER_GENUS`` raises before any relator is spelled out, so a
    huge exponent costs nothing.
    """
    gens: list[str] = []
    powers: list[list[tuple[int, int]]] = []  # per relator: (generator index, exponent)
    seen_gens = False
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise PreconditionError(f"expected 'gens:' or 'rel:' section, got {chunk!r}")
        head, body = chunk.split(":", 1)
        head = head.strip()
        tokens = body.split()
        if head == "gens":
            if seen_gens:
                raise PreconditionError("duplicate gens section")
            seen_gens = True
            for tok in tokens:
                if not _NAME_RE.match(tok):
                    raise PreconditionError(f"bad generator name {tok!r}")
                gens.append(tok)
        elif head == "rel":
            if not seen_gens:
                raise PreconditionError("rel section before gens")
            index = {name: i + 1 for i, name in enumerate(gens)}
            rel: list[tuple[int, int]] = []
            for tok in tokens:
                if "^" in tok:
                    name, exp_text = tok.split("^", 1)
                    if not name:
                        raise PreconditionError(f"exponent without a generator name in {tok!r}")
                    # ASCII only: int() also accepts '_' separators and digits such as '٣'
                    digits = exp_text[1:] if exp_text[:1] in ("+", "-") else exp_text
                    if not (digits.isascii() and digits.isdigit()):
                        raise PreconditionError(f"bad exponent in {tok!r}")
                    exp = int(exp_text)
                else:
                    name, exp = tok, 1
                if name not in index:
                    raise PreconditionError(f"undeclared generator {name!r}")
                rel.append((index[name], exp))
            powers.append(rel)
        else:
            raise PreconditionError(f"unknown section {head!r}")
    if not seen_gens:
        raise PreconditionError("missing gens section")
    # an exponent other than 0 or 1 repeats or inverts a generator, so the
    # normal form can be decided without spelling the relators out
    normalized = all(
        all(e in (0, 1) for _, e in rel) and _is_normal_relator(tuple(i for i, e in rel if e))
        for rel in powers
    )
    letters = sum(abs(e) for rel in powers for _, e in rel)
    genus = fiber_genus(len(gens), letters, normalized)
    check_fiber_genus(genus, "presentation needs fiber genus {}, above the limit {}")
    relators = tuple(
        tuple(letter for i, e in rel for letter in (i if e > 0 else -i,) * abs(e)) for rel in powers
    )
    return FinitePresentation(tuple(gens), relators)


def presentation_to_text(pres: FinitePresentation) -> str:
    parts = ["gens: " + " ".join(pres.generators) + ";"]
    for rel in pres.relators:
        words = []
        for letter in rel:
            name = pres.generators[abs(letter) - 1]
            words.append(name if letter > 0 else f"{name}^-1")
        parts.append("rel: " + " ".join(words) + ";")
    return " ".join(parts)
