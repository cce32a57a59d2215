"""Exact linear algebra on H1 of a closed orientable surface.

Everything lives over a fixed symplectic basis x_1..x_g, y_1..y_g with
pairing <x_i, y_j> = delta_ij and <x_i, x_j> = <y_i, y_j> = 0.  Coordinates
are stored x-block first, then y-block.  Integer classes use exact Python
ints, mod-2 classes use 0/1 tuples.  All values are immutable and every
operation is a pure function, so they are safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
        return ClassMod2(self, (0,) * self.dim)

    def zero_int(self) -> "ClassInt":
        return ClassInt(self, (0,) * self.dim)

    def unit_mod2(self, index: int) -> "ClassMod2":
        coords = [0] * self.dim
        coords[index] = 1
        return ClassMod2(self, tuple(coords))

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
    """Mod-2 homology class as a 0/1 coordinate tuple."""

    basis: SurfaceBasis
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.basis.dim:
            raise PreconditionError("coordinate length does not match basis dimension")
        if any(c not in (0, 1) for c in self.coords):
            raise PreconditionError("mod-2 coordinates must be 0 or 1")

    @classmethod
    def parse(cls, basis: SurfaceBasis, text: str) -> "ClassMod2":
        """Parse sparse form like ``x1+y3+y4`` (``0`` for the zero class)."""
        text = text.strip()
        coords = [0] * basis.dim
        if text != "0":
            for part in text.split("+"):
                coords[basis.label_index(part.strip())] ^= 1
        return cls(basis, tuple(coords))

    @classmethod
    def from_labels(cls, basis: SurfaceBasis, labels: Iterable[str]) -> "ClassMod2":
        coords = [0] * basis.dim
        for lab in labels:
            coords[basis.label_index(lab)] ^= 1
        return cls(basis, tuple(coords))

    def __add__(self, other: "ClassMod2") -> "ClassMod2":
        _check_same_basis(self, other)
        return ClassMod2(self.basis, tuple(a ^ b for a, b in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c)

    def sparse(self) -> str:
        if self.is_zero():
            return "0"
        return "+".join(self.basis.label(i) for i in self.support())

    def bits(self) -> int:
        """Coordinates packed into an int, bit i = coordinate i."""
        b = 0
        for i, c in enumerate(self.coords):
            b |= c << i
        return b


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
        return ClassMod2(self.basis, tuple(a & 1 for a in self.coords))


def intersect(u, v) -> int:
    """Algebraic intersection u^T J v; a bit for mod-2 classes, an int over Z."""
    _check_same_basis(u, v)
    g = u.basis.genus
    if isinstance(u, ClassMod2) and isinstance(v, ClassMod2):
        total = 0
        for k in range(g):
            total ^= (u.coords[k] & v.coords[g + k]) ^ (u.coords[g + k] & v.coords[k])
        return total
    if isinstance(u, ClassInt) and isinstance(v, ClassInt):
        return sum(u.coords[k] * v.coords[g + k] - u.coords[g + k] * v.coords[k] for k in range(g))
    raise PreconditionError("intersect requires two classes of the same kind")


def transvect(c, v):
    """Homological action of the positive twist along c: v + <v,c> c."""
    _check_same_basis(c, v)
    mult = intersect(v, c)
    if isinstance(v, ClassMod2):
        if not isinstance(c, ClassMod2):
            raise PreconditionError("mixed class kinds in transvect")
        if mult == 0:
            return v
        return v + c
    if not isinstance(c, ClassInt):
        raise PreconditionError("mixed class kinds in transvect")
    if mult == 0:
        return v
    return v + c.scaled(mult)


def transvect_inverse(c, v):
    """Inverse twist action: v - <v,c> c over Z; mod 2 it coincides with transvect."""
    if isinstance(v, ClassMod2):
        return transvect(c, v)
    _check_same_basis(c, v)
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
    sum_k v_xk v_yk, which makes the refinement identity automatic.
    """

    basis: SurfaceBasis
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.basis.dim:
            raise PreconditionError("value vector length does not match basis dimension")
        if any(b not in (0, 1) for b in self.values):
            raise PreconditionError("quadratic form values must be bits")

    def __call__(self, v: ClassMod2) -> int:
        if v.basis != self.basis:
            raise PreconditionError("class and form live over different bases")
        g = self.basis.genus
        total = sum(b for b, c in zip(self.values, v.coords) if c)
        total += sum(v.coords[k] & v.coords[g + k] for k in range(g))
        return total & 1

    def basis_table(self) -> dict[str, int]:
        return {self.basis.label(i): b for i, b in enumerate(self.values)}


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

    Brute force over all 2^(2g) basis-value assignments, in increasing order
    of the packed value integer (bit i = value on basis vector i).  Guarded
    at genus <= 8.
    """
    if basis.genus > 8:
        raise PreconditionError("spin structure enumeration is guarded at genus <= 8")
    for cls, bit in constraints:
        if cls.basis != basis:
            raise PreconditionError("constraint class over wrong basis")
        if bit not in (0, 1):
            raise PreconditionError("constraint bit must be 0 or 1")
    dim = basis.dim
    found = []
    for packed in range(1 << dim):
        values = tuple((packed >> i) & 1 for i in range(dim))
        q = QuadraticForm(basis, values)
        if all(q(cls) == bit for cls, bit in constraints):
            found.append(q)
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
        n = len(rows)
        packed = []
        for row in rows:
            b = 0
            for j, e in enumerate(row):
                b |= (e & 1) << j
            packed.append(b)
        return cls(n, tuple(packed))

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
        bits = v.bits()
        coords = tuple(bin(self.rows[i] & bits).count("1") & 1 for i in range(self.n))
        return ClassMod2(v.basis, coords)

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
        b = c.bits()
        return (b >> g) | ((b & ((1 << g) - 1)) << g)
    if isinstance(c, ClassInt):
        return c.coords[g:] + tuple(-a for a in c.coords[:g])
    raise PreconditionError("pairing_vector expects a homology class")


def mod2_rank(bit_rows: Iterable[int]) -> int:
    """Rank over F_2 of rows packed as ints (the ``Mod2Matrix`` row format)."""
    pivots: list[int] = []
    for row in bit_rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            pivots.sort(reverse=True)
    return len(pivots)


def transvection_matrix(c):
    """Matrix of v -> v + <v,c> c; entries T[i][j] = delta_ij + c_i (Jc)_j."""
    n = c.basis.dim
    if isinstance(c, ClassMod2):
        if c.is_zero():
            raise PreconditionError("transvection along the zero class")
        jc_bits = pairing_vector(c)
        rows = tuple((1 << i) ^ (jc_bits if c.coords[i] else 0) for i in range(n))
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
