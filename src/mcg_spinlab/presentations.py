"""Finite presentations, Smith normal form, and H1 certificates.

The Smith normal form is hand-rolled so the unimodular transforms are
returned for audit and the pivoting is deterministic: smallest nonzero
absolute value, row-major tie-break.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .homology import PreconditionError, intersect, mod2_rank


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


@dataclass(frozen=True)
class SNFResult:
    d: tuple[tuple[int, ...], ...]
    rank: int
    left: tuple[tuple[int, ...], ...]   # U with D = U M V
    right: tuple[tuple[int, ...], ...]  # V

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(self.rank))


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns D = U M V with the divisibility chain d1 | d2 | ... on the
    diagonal and d_i > 0.  Deterministic: the pivot is the smallest nonzero
    absolute value in the remaining block, first in row-major order on ties.
    """
    m = [list(map(int, row)) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise PreconditionError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        m[dst] = [a + mult * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + mult * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, mult):
        for row in m:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    def negate_row(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(nrows, ncols):
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best = a
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            moved = False
            for i in range(t + 1, nrows):
                if m[i][t]:
                    qt = m[i][t] // m[t][t]
                    add_row(t, i, -qt)
                    if m[i][t]:
                        swap_rows(t, i)
                    moved = True
            for j in range(t + 1, ncols):
                if m[t][j]:
                    qt = m[t][j] // m[t][t]
                    add_col(t, j, -qt)
                    if m[t][j]:
                        swap_cols(t, j)
                    moved = True
            if not moved:
                break
        if m[t][t] < 0:
            negate_row(t)
        # enforce divisibility: fold any bad entry into the pivot and redo
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if m[i][j] % m[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    rank = sum(1 for i in range(min(nrows, ncols)) if m[i][i])
    return SNFResult(
        tuple(tuple(row) for row in m),
        rank,
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def cokernel(rows: Sequence[Sequence[int]], n: int) -> AbelianGroup:
    """Z^n modulo the lattice spanned by the given row vectors."""
    rows = [list(r) for r in rows]
    if not rows:
        return AbelianGroup(n)
    if any(len(r) != n for r in rows):
        raise PreconditionError("row length does not match rank")
    snf = smith_normal_form(rows)
    torsion = tuple(d for d in snf.invariant_factors if d > 1)
    return AbelianGroup(n - snf.rank, torsion)


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
    for rel in pres.relators:
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

    Duplicate columns are removed before the Smith normal form; when some
    twist lacks an integer class the computation falls back to mod-2
    coefficients with an explicit marker.
    """
    n = p.basis.dim
    if p.has_integer_classes():
        rows = sorted({c.int_class.coords for c in p.twists})
        return H1Result("Z", group=cokernel(rows, n))
    bits = sorted({c.mod2.bits() for c in p.twists})
    return H1Result("Z/2", mod2_dimension=n - mod2_rank(bits))


def korkmaz_relator_set(p, conjugator_curves: Sequence) -> list:
    """Normal generator surrogate for iterated single-twist fiber sums.

    For the fibration of p p^(t_d1) ... the vanishing-cycle span is generated
    by the classes of p together with the conjugator curves, provided each
    conjugator meets some cycle of p once mod 2 (the homological certificate
    of the one-point transversal intersection hypothesis).
    """
    for d in conjugator_curves:
        if all(intersect(d.mod2, c.mod2) == 0 for c in p.twists):
            raise PreconditionError(
                f"conjugator {d.label} has zero mod-2 intersection with every twist curve"
            )
    out = [c.int_class if c.int_class is not None else c.mod2 for c in p.twists]
    out.extend(d.int_class if d.int_class is not None else d.mod2 for d in conjugator_curves)
    return out


# --- text format ----------------------------------------------------------------


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def presentation_from_text(text: str) -> FinitePresentation:
    """Parse ``gens: x1 x2; rel: x1 x2 x1^-1 x2^-1;`` (one rel section per relator)."""
    gens: list[str] = []
    relators: list[tuple[int, ...]] = []
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
            letters: list[int] = []
            for tok in tokens:
                if "^" in tok:
                    name, exp_text = tok.split("^", 1)
                    try:
                        exp = int(exp_text)
                    except ValueError:
                        raise PreconditionError(f"bad exponent in {tok!r}") from None
                else:
                    name, exp = tok, 1
                if name not in index:
                    raise PreconditionError(f"undeclared generator {name!r}")
                sign = 1 if exp > 0 else -1
                letters.extend([sign * index[name]] * abs(exp))
            relators.append(tuple(letters))
        else:
            raise PreconditionError(f"unknown section {head!r}")
    if not seen_gens:
        raise PreconditionError("missing gens section")
    return FinitePresentation(tuple(gens), tuple(relators))


def presentation_to_text(pres: FinitePresentation) -> str:
    parts = ["gens: " + " ".join(pres.generators) + ";"]
    for rel in pres.relators:
        words = []
        for letter in rel:
            name = pres.generators[abs(letter) - 1]
            words.append(name if letter > 0 else f"{name}^-1")
        parts.append("rel: " + " ".join(words) + ";")
    return " ".join(parts)
