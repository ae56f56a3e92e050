"""Eigenbases of the phased shift, complete sets for prime d, Gauss sums.

For each parameter a the phased shift has a non-degenerate spectrum and its
eigenvectors form a flat orthonormal basis whose component at storage slot s
carries the tau exponent t(d-t)a + 2tn with t = d-1-s (storage keeps the
highest-weight component first).  The computational basis plus the d
eigenbases form a complete set of d+1 mutually unbiased bases exactly when
d is prime; the verifier checks the defining overlap condition both
exactly (the cyclotomic norm certificate) and numerically.
"""

from dataclasses import dataclass

import numpy as np

from .cyclo import (
    DEFAULT_TOL,
    INTERNAL_TOL,
    CyclotomicSum,
    PhaseExponent,
    _phase_table,
    conjugate_phases,
    is_prime,
)
from .report import VerificationReport
from .weyl import build_v


@dataclass(frozen=True)
class MubVector:
    """One basis vector: exact tau exponents per component plus a float shadow.

    exact_exponents uses -1 for an exactly-zero component; every nonzero
    component is tau**k / d**(scale_sqrt_dim/2).
    """

    dim: int
    a: int | str
    n: int
    amps: np.ndarray
    exact_exponents: np.ndarray | None = None
    scale_sqrt_dim: int = 1

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if self.exact_exponents is not None:
            exps = np.ascontiguousarray(self.exact_exponents, dtype=np.int64)
            exps.setflags(write=False)
            object.__setattr__(self, "exact_exponents", exps)


@dataclass(frozen=True)
class MubBasis:
    """An ordered orthonormal basis labeled 's', an integer a, or 'class:<id>'."""

    dim: int
    label: int | str
    vectors: tuple
    class_labels: tuple | None = None

    def as_array(self) -> np.ndarray:
        """Vectors as rows."""
        return np.stack([v.amps for v in self.vectors])

    @property
    def exact(self) -> bool:
        return all(v.exact_exponents is not None for v in self.vectors)


@dataclass(frozen=True)
class MubSet:
    dim: int
    bases: tuple
    forced: bool = False

    def __post_init__(self):
        labels = [b.label for b in self.bases]
        if len(set(labels)) != len(labels):
            raise ValueError(f"basis labels must be unique, got {labels}")

    @property
    def exact(self) -> bool:
        return all(b.exact for b in self.bases)


# -- construction ------------------------------------------------------------


def eigenvalue_exponent(d: int, a: int, n: int) -> PhaseExponent:
    """tau exponent of the eigenvalue attached to (a, n): (d-1)a - 2n mod 2d."""
    return PhaseExponent((d - 1) * a - 2 * n, 2 * d)


def _check_index(d: int, name: str, value: int) -> None:
    if not 0 <= value <= d - 1:
        raise ValueError(f"{name} must be in 0..{d - 1}, got {value}")


def build_mub_vector(d: int, a: int, n: int) -> MubVector:
    """The eigenvector of the phased shift with eigenvalue exponent (d-1)a - 2n."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_index(d, "a", a)
    _check_index(d, "n", n)
    s = np.arange(d)
    t = d - 1 - s
    if d % 2:
        # t(d-t) is even for odd d, so every exponent is an integer q-power
        assert not (t * (d - t) * a % 2).any()
    exps = (t * (d - t) * a + 2 * t * n) % (2 * d)
    amps = _phase_table(2 * d)[exps] / np.sqrt(d)
    return MubVector(d, a, n, amps, exps, scale_sqrt_dim=1)


def build_basis(d: int, a: int) -> MubBasis:
    """The orthonormal eigenbasis of the phased shift at parameter a."""
    return MubBasis(d, a, tuple(build_mub_vector(d, a, n) for n in range(d)))


def spherical_basis(d: int) -> MubBasis:
    """The computational basis (identity columns), labeled 's'."""
    vectors = []
    for i in range(d):
        amps = np.zeros(d, dtype=np.complex128)
        amps[i] = 1.0
        exps = np.full(d, -1, dtype=np.int64)
        exps[i] = 0
        vectors.append(MubVector(d, "s", i, amps, exps, scale_sqrt_dim=0))
    return MubBasis(d, "s", tuple(vectors))


def build_complete_set(d: int, force: bool = False) -> MubSet:
    """The computational basis plus the d eigenbases; complete iff d is prime.

    Non-prime d is refused (the cyclic recipe cannot reach d+1 pairwise
    unbiased bases there); force=True builds the family anyway so the
    failure can be exhibited, and the resulting set is marked forced.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not is_prime(d) and not force:
        raise ValueError(
            f"d = {d} is not prime: the cyclic recipe yields d+1 pairwise "
            "unbiased bases only in prime dimension; pass force=True to build "
            "the (incomplete) family anyway"
        )
    bases = [spherical_basis(d)] + [build_basis(d, a) for a in range(d)]
    return MubSet(d, tuple(bases), forced=not is_prime(d))


# -- verification ------------------------------------------------------------


def overlap_matrix(a_basis: MubBasis, b_basis: MubBasis) -> np.ndarray:
    """All inner products <u_i|v_j> between two bases."""
    return a_basis.as_array().conj() @ b_basis.as_array().T


def _conjugate_grids(basis: MubBasis) -> tuple[np.ndarray, np.ndarray]:
    """tau**(k*e) of every exponent e for each conjugating exponent k, (K, d, d)
    with vectors as rows and zeros kept zero, plus each vector's scale_sqrt_dim."""
    exps = np.stack([v.exact_exponents for v in basis.vectors])
    grids = np.where(exps < 0, 0, conjugate_phases(basis.dim)[:, exps])
    return grids, np.array([v.scale_sqrt_dim for v in basis.vectors])


def verify_unbiased(
    a_basis: MubBasis, b_basis: MubBasis, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the unbiasedness condition between two bases.

    For distinct bases every overlap modulus must equal 1/sqrt(d); for a
    basis against itself the Gram matrix must be the identity.  With both
    bases exact the verdict is exact in every dimension: for amplitudes
    tau**e / d**(s/2) the scaled overlaps z are cyclotomic integers, and
    |z|**2 = d**(sa+sb-1) (z = d**sa * I for the same basis) holds iff the
    residual is below 1/2 in every Galois conjugate (mubkit.cyclo), the Gram
    matrix of the k-conjugated grids; its float error is near d**2 * 2**-50.
    |z|**2 = 1/d (sa = sb = 0) has no algebraic-integer solution, so such
    entries fail outright.
    """
    if a_basis.dim != b_basis.dim:
        raise ValueError("dimension mismatch between bases")
    d = a_basis.dim
    same = a_basis is b_basis or a_basis.label == b_basis.label
    overlaps = overlap_matrix(a_basis, b_basis)
    if same:
        deviation = float(np.abs(overlaps - np.eye(d)).max())
    else:
        deviation = float(np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max())

    exact_ok = None
    if a_basis.exact and b_basis.exact:
        ga, sa = _conjugate_grids(a_basis)
        gb, sb = _conjugate_grids(b_basis)
        grams = ga.conj() @ gb.transpose(0, 2, 1)
        if same:
            residual = np.abs(grams - np.diag(float(d) ** sa))
        else:
            power = sa[:, None] + sb[None, :] - 1
            residual = np.where(power < 0, np.inf, np.abs(np.abs(grams) ** 2 - float(d) ** power))
        exact_ok = bool(residual.max() < 0.5)

    passed = exact_ok if exact_ok is not None else deviation < tol
    return VerificationReport(
        kind="unbiasedness",
        passed=bool(passed),
        tolerance=tol,
        max_residual=deviation,
        details={
            "dim": d,
            "a": a_basis.label,
            "b": b_basis.label,
            "same_basis": same,
            "exact": exact_ok,
        },
    )


def verify_set(
    mub_set: MubSet, tol: float = DEFAULT_TOL, internal_tol: float = INTERNAL_TOL
) -> VerificationReport:
    """All-pairs (and per-basis Gram) verification of a candidate MUB set.

    When a pair verifies exactly, its float shadow must agree within
    internal_tol, so the two evaluation paths cannot drift apart silently.
    """
    reports = []
    bases = mub_set.bases
    for i in range(len(bases)):
        reports.append(verify_unbiased(bases[i], bases[i], tol))
        for j in range(i + 1, len(bases)):
            reports.append(verify_unbiased(bases[i], bases[j], tol))
    worst = max(r.max_residual for r in reports)
    for r in reports:
        if r.details["exact"] and r.max_residual >= internal_tol:
            r.passed = False
            r.details["inconsistent"] = True
    failing = [
        {"a": r.details["a"], "b": r.details["b"], "max_residual": r.max_residual}
        for r in reports
        if not r.passed
    ]
    details = {
        "dim": mub_set.dim,
        "n_bases": len(bases),
        "n_pairs": len(bases) * (len(bases) - 1) // 2,
        "failing_pairs": failing,
        "exact": mub_set.exact,
    }
    if mub_set.forced:
        details["note"] = "not complete by construction"
    return VerificationReport(
        kind="mub_set",
        passed=not failing,
        tolerance=tol,
        max_residual=float(worst),
        details=details,
    )


# -- Gauss sums ---------------------------------------------------------------


def gauss_sum_magnitude(
    d: int, a: int, b: int, n_alpha: int, n_beta: int
) -> tuple[CyclotomicSum, float]:
    """The structured exponential sum sum_k q**(k(d-k)(a-b)/2 + k(n_a - n_b)).

    Returns its squared magnitude as an exact cyclotomic integer together
    with the numeric magnitude.  For prime d the squared magnitude is d**2,
    0 or d according to the index pattern.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    for name, value in (("a", a), ("b", b), ("n_alpha", n_alpha), ("n_beta", n_beta)):
        _check_index(d, name, value)
    k = np.arange(d)
    if d % 2:
        assert not (k * (d - k) * (a - b) % 2).any()
    exps = (k * (d - k) * (a - b) + 2 * k * (n_alpha - n_beta)) % (2 * d)
    total = CyclotomicSum.from_exponent_counts(exps, d)
    numeric = abs(complex(_phase_table(2 * d)[exps].sum()))
    return total.abs_squared(), numeric


def gauss_sum_expected_sq(d: int, a: int, b: int, n_alpha: int, n_beta: int) -> int:
    """Expected squared magnitude under the sum rule: d**2, 0, or d."""
    if a == b:
        return d * d if n_alpha == n_beta else 0
    return d


# -- eigen-relation -----------------------------------------------------------


def eigen_relation_residual(d: int, a: int, n: int) -> int:
    """Exponent-arithmetic residual of (phased shift) v = lambda v; 0 means exact.

    Counts the component slots where the tau exponent of the matrix action
    differs from eigenvalue-exponent + component-exponent (mod 2d).
    """
    vec = build_mub_vector(d, a, n)
    exps = vec.exact_exponents
    two_d = 2 * d
    lam = eigenvalue_exponent(d, a, n).value
    lhs = np.empty(d, dtype=np.int64)
    lhs[: d - 1] = (2 * np.arange(1, d) * a + exps[1:]) % two_d
    lhs[d - 1] = exps[0]
    rhs = (lam + exps) % two_d
    return int(np.count_nonzero(lhs - rhs))


def eigen_relation_numeric_residual(d: int, a: int, n: int) -> float:
    vec = build_mub_vector(d, a, n)
    lam = eigenvalue_exponent(d, a, n).evaluate()
    return float(np.abs(build_v(d, a).entries @ vec.amps - lam * vec.amps).max())
