"""mubkit: complete sets of mutually unbiased bases from one cyclic generator.

A single d x d phased cyclic shift, built from the characters of the cyclic
group of order d, generates d eigenbases that together with the
computational basis form a complete set of d+1 mutually unbiased bases for
prime d.  The package constructs these sets, extends them to prime-power
dimension via tensor products, and verifies every claimed identity both in
exact cyclotomic arithmetic and in floating point: trace orthogonality,
eigen-relations, unbiasedness, the Gauss sum rule, q-commutation, the
sine-algebra commutator closure, and the su(2) ladder polar decomposition.
"""

from .cyclo import (
    DEFAULT_TOL,
    CyclotomicSum,
    PhaseExponent,
    is_prime,
)
from .composite import (
    CommutingClass,
    ConstructionError,
    DegeneracyReport,
    WeylLabel,
    build_composite_set,
    build_w,
    degeneracy_report,
    joint_eigenbasis,
    partition_commuting_classes,
)
from .mub import (
    MubBasis,
    MubSet,
    MubVector,
    build_basis,
    build_complete_set,
    build_mub_vector,
    eigenvalue_exponent,
    gauss_sum_magnitude,
    overlap_matrix,
    spherical_basis,
    verify_set,
    verify_unbiased,
)
from .report import VerificationReport
from .su2 import (
    AngularParams,
    build_h,
    build_ladder,
    build_va_operator,
    check_ladder_action,
    check_su2,
)
from .weyl import (
    OperatorMatrix,
    WedgeIndex,
    build_t,
    build_v,
    build_z,
    character_vector,
    ffz_commutator_residual,
    ffz_sweep,
    q_commutation_residual,
    select_ffz_sign_convention,
    trace_inner_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AngularParams",
    "CommutingClass",
    "ConstructionError",
    "CyclotomicSum",
    "DegeneracyReport",
    "DEFAULT_TOL",
    "MubBasis",
    "MubSet",
    "MubVector",
    "OperatorMatrix",
    "PhaseExponent",
    "VerificationReport",
    "WedgeIndex",
    "WeylLabel",
    "build_basis",
    "build_complete_set",
    "build_composite_set",
    "build_h",
    "build_ladder",
    "build_mub_vector",
    "build_t",
    "build_v",
    "build_va_operator",
    "build_w",
    "build_z",
    "character_vector",
    "check_ladder_action",
    "check_su2",
    "degeneracy_report",
    "eigenvalue_exponent",
    "ffz_commutator_residual",
    "ffz_sweep",
    "gauss_sum_magnitude",
    "is_prime",
    "joint_eigenbasis",
    "overlap_matrix",
    "partition_commuting_classes",
    "q_commutation_residual",
    "select_ffz_sign_convention",
    "spherical_basis",
    "trace_inner_exact",
    "verify_set",
    "verify_unbiased",
]
