"""Exact linear algebra on H1 of a closed orientable surface.

Everything lives over a fixed symplectic basis x_1..x_g, y_1..y_g with
pairing <x_i, y_j> = delta_ij and <x_i, x_j> = <y_i, y_j> = 0.  Coordinates
are stored x-block first, then y-block.  Integer classes use exact Python
ints, mod-2 classes pack their coordinates into one int (bit i = coordinate
i), the row format of ``Mod2Matrix``.  All values are immutable and every
operation is a pure function, so they are safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class PreconditionError(ValueError):
    """An operation was invoked outside its documented domain."""


_LABEL_RE = re.compile(r"^([A-Za-z])(\d+)$")


@dataclass(frozen=True)
class SurfaceBasis:
    """Symplectic basis of H1(Sigma_g).

    ``labels`` selects the display alphabet only: "xy" prints x1..xg,
    y1..yg, while "ab" prints a1..ag, b1..bg.  The algebra never depends
    on it.
    """

    genus: int
    labels: str = "xy"

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise PreconditionError("genus must be non-negative")
        if self.labels not in ("xy", "ab"):
            raise PreconditionError("label scheme must be 'xy' or 'ab'")

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def label(self, index: int) -> str:
        if not 0 <= index < self.dim:
            raise PreconditionError(f"basis index {index} out of range")
        first, second = self.labels
        if index < self.genus:
            return f"{first}{index + 1}"
        return f"{second}{index - self.genus + 1}"

    def label_index(self, label: str) -> int:
        m = _LABEL_RE.match(label)
        if m is None:
            raise PreconditionError(f"bad basis label {label!r}")
        letter, num = m.group(1), int(m.group(2))
        first, second = self.labels
        if not 1 <= num <= self.genus:
            raise PreconditionError(f"basis label {label!r} out of range for genus {self.genus}")
        if letter == first:
            return num - 1
        if letter == second:
            return self.genus + num - 1
        raise PreconditionError(f"label {label!r} does not match scheme {self.labels!r}")

    def zero_mod2(self) -> "ClassMod2":
        return ClassMod2(self, 0)

    def zero_int(self) -> "ClassInt":
        return ClassInt(self, (0,) * self.dim)

    def unit_mod2(self, index: int) -> "ClassMod2":
        return ClassMod2(self, 1 << index)

    def unit_int(self, index: int) -> "ClassInt":
        coords = [0] * self.dim
        coords[index] = 1
        return ClassInt(self, tuple(coords))

    def x_index(self, i: int) -> int:
        """0-based coordinate slot of x_i (1-based i)."""
        if not 1 <= i <= self.genus:
            raise PreconditionError(f"x index {i} out of range")
        return i - 1

    def y_index(self, i: int) -> int:
        if not 1 <= i <= self.genus:
            raise PreconditionError(f"y index {i} out of range")
        return self.genus + i - 1


def _check_same_basis(u, v) -> None:
    if u.basis != v.basis:
        raise PreconditionError("classes live over different bases")


@dataclass(frozen=True)
class ClassMod2:
    """Mod-2 homology class, coordinates packed into an int (bit i = coordinate i)."""

    basis: SurfaceBasis
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < 1 << self.basis.dim:
            raise PreconditionError("mod-2 bits out of range for the basis dimension")

    @classmethod
    def parse(cls, basis: SurfaceBasis, text: str) -> "ClassMod2":
        """Parse sparse form like ``x1+y3+y4`` (``0`` for the zero class)."""
        text = text.strip()
        return cls.from_labels(basis, () if text == "0" else (part.strip() for part in text.split("+")))

    @classmethod
    def from_labels(cls, basis: SurfaceBasis, labels: Iterable[str]) -> "ClassMod2":
        bits = 0
        for lab in labels:
            bits ^= 1 << basis.label_index(lab)
        return cls(basis, bits)

    def __add__(self, other: "ClassMod2") -> "ClassMod2":
        _check_same_basis(self, other)
        return ClassMod2(self.basis, self.bits ^ other.bits)

    def is_zero(self) -> bool:
        return not self.bits

    def support(self) -> tuple[int, ...]:
        """Indices of the set bits, in increasing order; one step per set bit."""
        out = []
        bits = self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return tuple(out)

    def sparse(self) -> str:
        if self.is_zero():
            return "0"
        return "+".join(self.basis.label(i) for i in self.support())


@dataclass(frozen=True)
class ClassInt:
    """Integer homology class."""

    basis: SurfaceBasis
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.basis.dim:
            raise PreconditionError("coordinate length does not match basis dimension")

    @classmethod
    def from_coeffs(cls, basis: SurfaceBasis, coeffs: dict[str, int]) -> "ClassInt":
        coords = [0] * basis.dim
        for lab, c in coeffs.items():
            coords[basis.label_index(lab)] += c
        return cls(basis, tuple(coords))

    def __add__(self, other: "ClassInt") -> "ClassInt":
        _check_same_basis(self, other)
        return ClassInt(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ClassInt") -> "ClassInt":
        _check_same_basis(self, other)
        return ClassInt(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "ClassInt":
        return ClassInt(self.basis, tuple(-a for a in self.coords))

    def scaled(self, k: int) -> "ClassInt":
        return ClassInt(self.basis, tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def mod2(self) -> ClassMod2:
        return ClassMod2(self.basis, sum(1 << i for i, a in enumerate(self.coords) if a & 1))


def intersect(u, v) -> int:
    """Algebraic intersection u^T J v; a bit for mod-2 classes, an int over Z."""
    _check_same_basis(u, v)
    if isinstance(u, ClassMod2) and isinstance(v, ClassMod2):
        return (u.bits & pairing_vector(v)).bit_count() & 1
    if isinstance(u, ClassInt) and isinstance(v, ClassInt):
        g = u.basis.genus
        return sum(u.coords[k] * v.coords[g + k] - u.coords[g + k] * v.coords[k] for k in range(g))
    raise PreconditionError("intersect requires two classes of the same kind")


def transvect(c, v):
    """Homological action of the positive twist along c: v + <v,c> c."""
    mult = intersect(v, c)
    if mult == 0:
        return v
    if isinstance(v, ClassMod2):
        return v + c
    return v + c.scaled(mult)


def transvect_inverse(c, v):
    """Inverse twist action: v - <v,c> c over Z; mod 2 it coincides with transvect."""
    if isinstance(v, ClassMod2):
        return transvect(c, v)
    mult = intersect(v, c)
    if mult == 0:
        return v
    return v - c.scaled(mult)


@dataclass(frozen=True)
class QuadraticForm:
    """Z/2 quadratic refinement of the intersection pairing.

    Stored by its values on the basis vectors; evaluation expands a class in
    basis vectors and applies q(sum d_i) = sum q(d_i) + sum_{i<j} d_i . d_j.
    For the standard symplectic basis the pairwise term collapses to
    sum_k v_xk v_yk, which makes the refinement identity automatic.  On packed
    bits both terms are parities: of v & values and of v & (v >> g).
    """

    basis: SurfaceBasis
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.basis.dim:
            raise PreconditionError("value vector length does not match basis dimension")
        if any(b not in (0, 1) for b in self.values):
            raise PreconditionError("quadratic form values must be bits")

    @cached_property
    def value_bits(self) -> int:
        """The basis values packed into an int, bit i = value on basis vector i."""
        return sum(b << i for i, b in enumerate(self.values))

    def __call__(self, v: ClassMod2) -> int:
        if v.basis != self.basis:
            raise PreconditionError("class and form live over different bases")
        b = v.bits
        return ((b & self.value_bits) ^ (b & b >> self.basis.genus)).bit_count() & 1


def arf_invariant(q: QuadraticForm) -> int:
    """Arf invariant sum_i q(x_i) q(y_i) mod 2."""
    g = q.basis.genus
    return sum(q.values[k] & q.values[g + k] for k in range(g)) & 1


def is_twist_in_spin_mcg(q: QuadraticForm, c: ClassMod2) -> bool:
    """Stipsicz/Johnson criterion: the twist along c preserves q iff q(c) = 1.

    Only meaningful for nonseparating curves; a zero class is rejected since
    the criterion does not apply to separating curves.
    """
    if c.is_zero():
        raise PreconditionError("zero mod-2 class: criterion applies to nonseparating curves only")
    return q(c) == 1


def enumerate_spin_structures(
    basis: SurfaceBasis,
    constraints: Sequence[tuple[ClassMod2, int]] = (),
) -> list[QuadraticForm]:
    """All quadratic forms with q(cls) = bit for every constraint.

    q(cls) = cls . v + q0(cls), with q0 the zero form, is affine in the packed
    basis values v, so the constraints are an F_2 linear system.  Each reduced
    row pivots on its lowest bit and its other bits are free columns, so
    counting through the free columns lists the forms in increasing order of
    the packed value integer (bit i = value on basis vector i).  More than
    2^16 forms are refused before any is listed.
    """
    for cls, bit in constraints:
        if cls.basis != basis:
            raise PreconditionError("constraint class over wrong basis")
        if bit not in (0, 1):
            raise PreconditionError("constraint bit must be 0 or 1")
    q0 = QuadraticForm(basis, (0,) * basis.dim)
    pivots: dict[int, tuple[int, int]] = {}  # pivot column -> (row, right-hand side)
    for cls, bit in constraints:
        row, rhs = cls.bits, bit ^ q0(cls)
        for col, (prow, prhs) in pivots.items():
            if row >> col & 1:
                row, rhs = row ^ prow, rhs ^ prhs
        if not row:
            if rhs:
                return []
            continue
        col = (row & -row).bit_length() - 1
        for other, (prow, prhs) in pivots.items():
            if prow >> col & 1:
                pivots[other] = (prow ^ row, prhs ^ rhs)
        pivots[col] = (row, rhs)
    free = (1 << basis.dim) - 1 - sum(1 << col for col in pivots)
    if free.bit_count() > 16:
        raise PreconditionError(f"2^{free.bit_count()} spin structures exceed the listing bound of 2^16")
    found, packed = [], 0
    for _ in range(1 << free.bit_count()):
        for col, (row, rhs) in pivots.items():
            packed |= (rhs ^ ((row & packed).bit_count() & 1)) << col
        found.append(QuadraticForm(basis, tuple((packed >> i) & 1 for i in range(basis.dim))))
        packed = ((packed & free) - free) & free
    return found


# --- transvection matrices ---------------------------------------------------


@dataclass(frozen=True)
class Mod2Matrix:
    """Square matrix over F_2 with rows packed as int bitmasks (bit j = column j)."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.n:
            raise PreconditionError("row count does not match size")

    @classmethod
    def identity(cls, n: int) -> "Mod2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Mod2Matrix":
        return cls(len(rows), tuple(sum((e & 1) << j for j, e in enumerate(row)) for row in rows))

    def to_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple((r >> j) & 1 for j in range(self.n)) for r in self.rows)

    def __matmul__(self, other: "Mod2Matrix") -> "Mod2Matrix":
        if self.n != other.n:
            raise PreconditionError("matrix size mismatch")
        out = []
        for r in self.rows:
            acc = 0
            j = 0
            while r:
                if r & 1:
                    acc ^= other.rows[j]
                r >>= 1
                j += 1
            out.append(acc)
        return Mod2Matrix(self.n, tuple(out))

    def apply(self, v: ClassMod2) -> ClassMod2:
        if v.basis.dim != self.n:
            raise PreconditionError("matrix size does not match basis dimension")
        return ClassMod2(v.basis, sum(((r & v.bits).bit_count() & 1) << i for i, r in enumerate(self.rows)))

    def transpose(self) -> "Mod2Matrix":
        return Mod2Matrix(
            self.n,
            tuple(
                sum(((self.rows[i] >> j) & 1) << i for i in range(self.n))
                for j in range(self.n)
            ),
        )

    def is_identity(self) -> bool:
        return all(r == (1 << i) for i, r in enumerate(self.rows))

    def is_symplectic(self) -> bool:
        """M^T J M = J over F_2."""
        if self.n % 2:
            return False
        j = standard_j(self.n // 2).mod2()
        return (self.transpose() @ j @ self) == j


@dataclass(frozen=True)
class IntMatrix:
    """Exact integer square matrix (tuple of row tuples)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise PreconditionError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise PreconditionError("matrix size mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def apply(self, v: ClassInt) -> ClassInt:
        if v.basis.dim != self.n:
            raise PreconditionError("matrix size does not match basis dimension")
        return ClassInt(v.basis, tuple(sum(a * b for a, b in zip(row, v.coords)) for row in self.rows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def mod2(self) -> Mod2Matrix:
        return Mod2Matrix.from_rows(self.rows)

    def is_identity(self) -> bool:
        return all(r == (1 if i == j else 0) for i, row in enumerate(self.rows) for j, r in enumerate(row))

    def is_symplectic(self) -> bool:
        if self.n % 2:
            return False
        j = standard_j(self.n // 2)
        return (self.transpose() @ j @ self) == j

    def symplectic_inverse(self) -> "IntMatrix":
        """Inverse of a symplectic matrix via M^-1 = J^-1 M^T J (stays integral)."""
        g = self.n // 2
        j = standard_j(g)
        jinv = IntMatrix(tuple(tuple(-e for e in row) for row in j.rows))
        return (jinv @ self.transpose()) @ j


def standard_j(g: int) -> IntMatrix:
    """Matrix of the intersection pairing: <u, v> = u^T J v."""
    n = 2 * g
    rows = []
    for i in range(n):
        row = [0] * n
        if i < g:
            row[i + g] = 1
        else:
            row[i - g] = -1
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


def pairing_vector(c):
    """w = J c, the vector with w . v = <v, c> for every class v.

    Integer classes give a coordinate tuple; mod-2 classes give w packed into
    an int (bit j = coordinate j), the row format of ``Mod2Matrix``.
    """
    g = c.basis.genus
    if isinstance(c, ClassMod2):
        b = c.bits
        return (b >> g) | ((b & ((1 << g) - 1)) << g)
    if isinstance(c, ClassInt):
        return c.coords[g:] + tuple(-a for a in c.coords[:g])
    raise PreconditionError("pairing_vector expects a homology class")


def mod2_rank(bit_rows: Iterable[int]) -> int:
    """Rank over F_2 of rows packed as ints (the ``Mod2Matrix`` row format).

    Each pivot owns its leading bit; a row is XORed only with the pivot that
    owns its current leading bit, until it is zero or owns a new one.
    """
    pivots: dict[int, int] = {}
    for row in bit_rows:
        while row:
            lead = row.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def transvection_matrix(c):
    """Matrix of v -> v + <v,c> c; entries T[i][j] = delta_ij + c_i (Jc)_j."""
    n = c.basis.dim
    if isinstance(c, ClassMod2):
        if c.is_zero():
            raise PreconditionError("transvection along the zero class")
        jc_bits = pairing_vector(c)
        rows = tuple((1 << i) ^ (jc_bits if c.bits >> i & 1 else 0) for i in range(n))
        return Mod2Matrix(n, rows)
    if isinstance(c, ClassInt):
        if c.is_zero():
            raise PreconditionError("transvection along the zero class")
        jc = pairing_vector(c)
        rows = tuple(
            tuple((1 if i == j else 0) + c.coords[i] * jc[j] for j in range(n)) for i in range(n)
        )
        return IntMatrix(rows)
    raise PreconditionError("transvection_matrix expects a homology class")
