"""mubkit: complete sets of mutually unbiased bases from one cyclic generator.

A single d x d phased cyclic shift, built from the characters of the cyclic
group of order d, generates d eigenbases that together with the
computational basis form a complete set of d+1 mutually unbiased bases for
prime d.  The package constructs these sets, extends them to prime-power
dimension via tensor products, and verifies every claimed identity both in
exact cyclotomic arithmetic and in floating point: trace orthogonality,
eigen-relations, unbiasedness, the Gauss sum rule, q-commutation, the
sine-algebra commutator closure, and the su(2) ladder polar decomposition.

Each public name is imported from its module on first access (PEP 562) and
then bound here, so `import mubkit` loads no submodule and later lookups are
plain attribute reads.
"""

import importlib

__version__ = "0.1.0"

#: The module that defines each public name.
_EXPORTS = {
    "cyclo": ("DEFAULT_TOL", "CyclotomicSum", "PhaseExponent", "is_prime"),
    "composite": (
        "ConstructionError",
        "DegeneracyReport",
        "build_composite_set",
        "build_w",
        "degeneracy_report",
        "joint_eigenbasis",
        "partition_commuting_classes",
    ),
    "mub": (
        "MubBasis",
        "MubSet",
        "MubVector",
        "build_basis",
        "build_complete_set",
        "build_mub_vector",
        "eigenvalue_exponent",
        "gauss_sum_magnitude",
        "overlap_matrix",
        "spherical_basis",
        "verify_set",
        "verify_unbiased",
    ),
    "report": ("VerificationReport",),
    "su2": (
        "AngularParams",
        "build_h",
        "build_ladder",
        "build_va_operator",
        "check_ladder_action",
        "check_su2",
    ),
    "weyl": (
        "OperatorMatrix",
        "WedgeIndex",
        "build_t",
        "build_v",
        "build_z",
        "character_vector",
        "ffz_commutator_residual",
        "ffz_sweep",
        "q_commutation_residual",
        "select_ffz_sign_convention",
        "trace_inner_exact",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
