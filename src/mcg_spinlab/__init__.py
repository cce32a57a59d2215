"""Homology-level workbench for positive Dehn twist factorizations.

Models factorizations of surface mapping classes on H1, verifies spin
(quadratic form) conditions, performs fiber-sum and breeding surgery,
computes 4-manifold characteristic numbers and the realized geography
region, and certifies fundamental-group abelianizations.
"""

from .homology import (
    ClassInt,
    ClassMod2,
    IntMatrix,
    Mod2Matrix,
    PreconditionError,
    QuadraticForm,
    SurfaceBasis,
    arf_invariant,
    enumerate_spin_structures,
    intersect,
    is_twist_in_spin_mcg,
    standard_j,
    transvect,
    transvect_inverse,
    transvection_matrix,
)
from .factorization import (
    Curve,
    PositiveFactorization,
    RelationCheck,
    SpinCertificate,
    SubsurfaceImage,
    TwistWord,
    apply_word,
    breed,
    check_relation,
    check_spin,
    conjugate,
    factorization_from_dict,
    factorization_to_dict,
    fiber_sum,
    hurwitz_move,
)
from .invariants import (
    FibrationInvariants,
    GeographyPoint,
    enumerate_region,
    euler_characteristic,
    invariants_of,
    is_admissible,
    meyer_cocycle,
    realize,
    region_chunks,
    signature_endo,
    signature_meyer,
)
from .presentations import (
    AbelianGroup,
    FinitePresentation,
    H1Result,
    abelianization,
    cokernel,
    fibration_h1,
    is_normalized,
    normalize_presentation,
    presentation_from_text,
    presentation_to_text,
    smith_normal_form,
)
from .constructions import (
    BredCertificate,
    GroupCertificate,
    boundary_conjugators,
    bred_fibration,
    bred_invariants,
    bred_word,
    chain_curves,
    group_certificate,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    pencil_images,
    relator_curves,
    spin_fibration_with_group,
    spin_form_all_ones,
    spin_form_alternating,
    subsurface_boundary,
    twisted_double,
)

__version__ = "0.1.0"
