"""Shared random generators for the property suites."""

from mcg_spinlab.homology import ClassInt, ClassMod2, SurfaceBasis


def random_mod2_class(rng, basis: SurfaceBasis, nonzero: bool = False) -> ClassMod2:
    while True:
        bits = sum(rng.randint(0, 1) << i for i in range(basis.dim))
        if bits or not nonzero:
            return ClassMod2(basis, bits)


def random_int_class(rng, basis: SurfaceBasis, bound: int = 3, odd: bool = False) -> ClassInt:
    while True:
        coords = tuple(rng.randint(-bound, bound) for _ in range(basis.dim))
        if not odd or any(c % 2 for c in coords):
            return ClassInt(basis, coords)


def random_form(rng, basis: SurfaceBasis):
    from mcg_spinlab.homology import QuadraticForm

    return QuadraticForm(basis, tuple(rng.randint(0, 1) for _ in range(basis.dim)))
