"""Eigenbases of the phased shift, complete sets for prime d, Gauss sums.

For each parameter a the phased shift has a non-degenerate spectrum and its
eigenvectors form a flat orthonormal basis whose component at storage slot s
carries the tau exponent t(d-t)a + 2tn with t = d-1-s (storage keeps the
highest-weight component first).  The computational basis plus the d
eigenbases form a complete set of d+1 mutually unbiased bases exactly when
d is prime; the verifier checks the defining overlap condition both
exactly (the cyclotomic norm certificate) and numerically.

Bases and sets are stored as read-only arrays with vectors as rows: a basis
holds amps (d, d), tau exponents (d, d) or None, and per-vector scales (d,);
a set stacks them once into (n, d, d) and (n, d).
"""

from dataclasses import dataclass, field

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

#: Bytes of the buffer that verify_set writes one block's conjugate phase
#: grids and Grams into; it sets how many bases one batched Gram covers (at
#: least one), so memory stays bounded whatever d and the number of bases.
GRAM_BLOCK_BYTES = 1 << 20


def _frozen(array, dtype) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=dtype)
    array.setflags(write=False)
    return array


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
        object.__setattr__(self, "amps", _frozen(self.amps, np.complex128))
        if self.exact_exponents is not None:
            object.__setattr__(self, "exact_exponents", _frozen(self.exact_exponents, np.int64))


@dataclass(frozen=True, eq=False, init=False)
class MubBasis:
    """An ordered orthonormal basis labeled 's', an integer a, or 'class:<id>'.

    amps (d, d) holds the vectors as rows; exponents (d, d) their tau
    exponents (-1 for an exact zero), or None when the basis has no exact
    form; scales (d,) each vector's scale_sqrt_dim.  All are read-only.
    MubBasis(dim, label, vectors) stacks MubVectors once; the build functions use
    from_arrays.
    """

    dim: int
    label: int | str
    amps: np.ndarray
    exponents: np.ndarray | None
    scales: np.ndarray
    class_labels: tuple | None

    def __init__(self, dim: int, label, vectors, class_labels=None):
        exps = [v.exact_exponents for v in vectors]
        self._store(
            dim,
            label,
            np.stack([v.amps for v in vectors]),
            None if any(e is None for e in exps) else np.stack(exps),
            [v.scale_sqrt_dim for v in vectors],
            class_labels,
        )

    @classmethod
    def from_arrays(cls, dim: int, label, amps, exponents=None, scales=1, class_labels=None):
        """A basis from its arrays; scales may be one value for every vector."""
        basis = cls.__new__(cls)
        basis._store(dim, label, amps, exponents, scales, class_labels)
        return basis

    def _store(self, dim, label, amps, exponents, scales, class_labels):
        amps = _frozen(amps, np.complex128)
        exps = None if exponents is None else _frozen(exponents, np.int64)
        if amps.shape != (dim, dim) or (exps is not None and exps.shape != (dim, dim)):
            raise ValueError(f"basis {label} must hold {dim} vectors of length {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "scales", _frozen(np.broadcast_to(scales, (dim,)), np.int64))
        object.__setattr__(self, "class_labels", class_labels)

    @property
    def vectors(self) -> tuple:
        """Read-only MubVector views of the rows."""
        rows = [None] * self.dim if self.exponents is None else self.exponents
        return tuple(
            MubVector(self.dim, self.label, n, amps, exps, int(scale))
            for n, (amps, exps, scale) in enumerate(zip(self.amps, rows, self.scales))
        )

    def as_array(self) -> np.ndarray:
        """Vectors as rows."""
        return self.amps

    @property
    def exact(self) -> bool:
        return self.exponents is not None


def _restack(bases, name: str, stack: np.ndarray) -> np.ndarray:
    """Copy each basis's array `name` into its row of stack and re-point the basis there.

    Re-pointing basis by basis frees each array that nothing else holds once
    it is copied, rather than after the whole set is stacked.
    """
    for b, row in zip(bases, stack):
        row[...] = getattr(b, name)
        view = row.view()
        view.setflags(write=False)
        object.__setattr__(b, name, view)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class MubSet:
    """Bases of one dimension, their arrays stacked once in basis order.

    amps (n, d, d) and scales (n, d) stack every basis's arrays; exponents
    (m, d, d) stacks those of the m bases that have them, which exact_bases
    (n,) marks.  Each basis is re-pointed at read-only views of these rows,
    so the set holds its arrays once.
    """

    dim: int
    bases: tuple
    forced: bool = False
    amps: np.ndarray = field(init=False, repr=False, compare=False)
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    scales: np.ndarray = field(init=False, repr=False, compare=False)
    exact_bases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = [b.label for b in self.bases]
        if len(set(labels)) != len(labels):
            raise ValueError(f"basis labels must be unique, got {labels}")
        if not self.bases:
            raise ValueError("a set needs at least one basis")
        for b in self.bases:
            if b.dim != self.dim:
                raise ValueError(f"basis {b.label} has dim {b.dim}, expected {self.dim}")
        d, n = self.dim, len(self.bases)
        exact = [b for b in self.bases if b.exact]
        stacked = {
            "amps": _restack(self.bases, "amps", np.empty((n, d, d), np.complex128)),
            "exponents": _restack(exact, "exponents", np.empty((len(exact), d, d), np.int64)),
            "scales": _restack(self.bases, "scales", np.empty((n, d), np.int64)),
            "exact_bases": _frozen([b.exact for b in self.bases], bool),
        }
        for key, value in stacked.items():
            object.__setattr__(self, key, value)

    @property
    def exact(self) -> bool:
        return bool(self.exact_bases.all())


# -- construction ------------------------------------------------------------


def eigenvalue_exponent(d: int, a: int, n: int) -> PhaseExponent:
    """tau exponent of the eigenvalue attached to (a, n): (d-1)a - 2n mod 2d."""
    return PhaseExponent((d - 1) * a - 2 * n, 2 * d)


def _check_index(d: int, name: str, value: int) -> None:
    if not 0 <= value <= d - 1:
        raise ValueError(f"{name} must be in 0..{d - 1}, got {value}")


def _eigen_exponents(d: int, a, n) -> np.ndarray:
    """tau exponents t(d-t)a + 2tn mod 2d at slots s = d-1-t, broadcast over a and n.

    The last axis runs over slots.  t(d-t) is even for odd d, so every
    exponent is then an integer q-power.
    """
    t = d - 1 - np.arange(d)
    return (t * (d - t) * np.asarray(a)[..., None] + 2 * t * np.asarray(n)[..., None]) % (2 * d)


def build_mub_vector(d: int, a: int, n: int) -> MubVector:
    """The eigenvector of the phased shift with eigenvalue exponent (d-1)a - 2n."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_index(d, "a", a)
    _check_index(d, "n", n)
    exps = _eigen_exponents(d, a, n)
    return MubVector(d, a, n, _phase_table(2 * d)[exps] / np.sqrt(d), exps, scale_sqrt_dim=1)


def build_basis(d: int, a: int) -> MubBasis:
    """The orthonormal eigenbasis of the phased shift at parameter a."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_index(d, "a", a)
    exps = _eigen_exponents(d, a, np.arange(d))
    return MubBasis.from_arrays(d, a, _phase_table(2 * d)[exps] / np.sqrt(d), exps)


def spherical_basis(d: int) -> MubBasis:
    """The computational basis (identity rows), labeled 's'."""
    eye = np.eye(d, dtype=np.int64)
    return MubBasis.from_arrays(d, "s", eye, eye - 1, scales=0)


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
    exps = _eigen_exponents(d, np.arange(d)[:, None], np.arange(d))
    amps = _phase_table(2 * d)[exps] / np.sqrt(d)
    eigenbases = [MubBasis.from_arrays(d, a, amps[a], exps[a]) for a in range(d)]
    return MubSet(d, (spherical_basis(d), *eigenbases), forced=not is_prime(d))


# -- verification ------------------------------------------------------------


def overlap_matrix(a_basis: MubBasis, b_basis: MubBasis) -> np.ndarray:
    """All inner products <u_i|v_j> between two bases."""
    return a_basis.amps.conj() @ b_basis.amps.T


def _deviations(amps_a: np.ndarray, amps_b: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Worst float deviation of basis a against each of B bases, (B,).

    amps_b is (B, d, d); same (B,) marks the bases that are a itself, whose
    overlaps must form the identity; all others need moduli 1/sqrt(d).
    """
    n_b, d = amps_b.shape[:2]
    overlaps = (amps_a.conj() @ amps_b.reshape(n_b * d, d).T).reshape(d, n_b, d)
    deviation = np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max(axis=(0, 2))
    deviation[same] = np.abs(overlaps[:, same] - np.eye(d)[:, None]).max(axis=(0, 2))
    return deviation


def _certificate_residuals(row_grid, sa, exps_b, sb, same, work) -> np.ndarray:
    """Worst Galois-conjugate residual of basis a against each of B bases, (B,).

    row_grid (K, d, d) is the conjugate of basis a's k-conjugated phase grid,
    conjugate_phases(d)[:, exps_a].conj(); exps_b (B, d, d) and sb (B, d)
    stack the other bases' exponents and scales.  For amplitudes
    tau**e / d**(s/2) the scaled overlaps z are cyclotomic integers, and
    |z|**2 = d**(sa+sb-1) across bases (z = d**sa * I within one) holds
    exactly iff the residual is below 1/2 in every conjugate sigma_k
    (mubkit.cyclo).  All K conjugates come from one batched Gram, (K, d, B*d).
    A target below 1 (sa = sb = 0) has no algebraic-integer solution, so its
    residual is inf.  The grids and Grams are written into work, a flat
    complex buffer of at least 2*K*B*d*d entries, so that verify_set reuses
    one allocation for every block.
    """
    n_k, d = row_grid.shape[:2]
    n_b = len(exps_b)
    size = n_k * n_b * d * d
    # exponent -1 wraps to the zero column of conjugate_phases
    grid = np.take(
        conjugate_phases(d), exps_b, axis=1, mode="wrap", out=work[:size].reshape(n_k, n_b, d, d)
    )
    grams = np.matmul(
        row_grid,
        grid.reshape(n_k, n_b * d, d).transpose(0, 2, 1),
        out=work[size : 2 * size].reshape(n_k, d, n_b * d),
    ).reshape(n_k, d, n_b, d)
    # the grids are spent, so the moduli overwrite them
    residual = np.abs(grams, out=work[:size].view(np.float64)[:size].reshape(grams.shape))
    np.square(residual, out=residual)
    power = sa[:, None, None] + sb[None] - 1
    residual -= float(d) ** power
    worst = np.abs(residual, out=residual).max(axis=(0, 1, 3))
    worst[(power < 0).any(axis=(0, 2))] = np.inf
    target = np.diag(float(d) ** sa)[:, None]
    worst[same] = np.abs(grams[:, :, same] - target).max(axis=(0, 1, 3))
    return worst


def _block_verdicts(amps_a, row_grid, sa, amps_b, exps_b, sb, exact_b, same, work, tol):
    """Deviations, residuals (NaN: no exact verdict) and verdicts of basis a against B bases.

    The rules are those verify_set states.  exps_b stacks the exponents of
    the bases exact_b (B,) marks; row_grid is None when basis a has none.
    """
    deviation = _deviations(amps_a, amps_b, same)
    residual = np.full(len(amps_b), np.nan)
    passed = deviation < tol
    if row_grid is not None and exact_b.any():
        residual[exact_b] = _certificate_residuals(
            row_grid, sa, exps_b, sb[exact_b], same[exact_b], work
        )
        passed[exact_b] = (residual[exact_b] < 0.5) & (deviation[exact_b] < INTERNAL_TOL)
    return deviation, residual, passed


def verify_unbiased(
    a_basis: MubBasis, b_basis: MubBasis, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the unbiasedness condition between two bases.

    For distinct bases every overlap modulus must equal 1/sqrt(d); for a
    basis against itself the Gram matrix must be the identity.  With both
    bases exact the verdict is exact in every dimension: every Galois
    conjugate of the scaled overlaps must meet its target within 1/2 (see
    _certificate_residuals); the float error is near d**2 * 2**-50.  This is
    the two-basis case of the kernel that verify_set runs, with its rules.
    """
    if a_basis.dim != b_basis.dim:
        raise ValueError("dimension mismatch between bases")
    d = a_basis.dim
    same = np.array([a_basis is b_basis or a_basis.label == b_basis.label])
    phases = conjugate_phases(d)
    deviation, residual, passed = _block_verdicts(
        a_basis.amps, phases[:, a_basis.exponents].conj() if a_basis.exact else None,
        a_basis.scales, b_basis.amps[None], b_basis.exponents[None] if b_basis.exact else None,
        b_basis.scales[None], np.array([b_basis.exact]), same,
        np.empty(2 * len(phases) * d * d, dtype=np.complex128), tol,
    )
    return VerificationReport(
        kind="unbiasedness",
        passed=bool(passed[0]),
        tolerance=tol,
        max_residual=float(deviation[0]),
        details={
            "dim": d,
            "a": a_basis.label,
            "b": b_basis.label,
            "same_basis": bool(same[0]),
            "exact": None if np.isnan(residual[0]) else bool(residual[0] < 0.5),
        },
    )


def verify_set(mub_set: MubSet, tol: float = DEFAULT_TOL) -> VerificationReport:
    """All-pairs (and per-basis Gram) verification of a candidate MUB set.

    Runs basis by basis: basis i is checked against itself and every later
    basis in blocks of as many bases as GRAM_BLOCK_BYTES allows, one batched
    Gram per block.  A pair of exact bases gets the exact verdict, and its
    float shadow must also agree within INTERNAL_TOL, so the two evaluation
    paths cannot drift apart silently; any other pair is decided by its
    float deviation against tol.
    """
    d = mub_set.dim
    n = len(mub_set.bases)
    amps, exps, scales, exact = mub_set.amps, mub_set.exponents, mub_set.scales, mub_set.exact_bases
    exps_row = np.cumsum(exact) - 1  # basis index -> row of exps
    phases = conjugate_phases(d)
    width = max(1, GRAM_BLOCK_BYTES // (2 * phases.itemsize * len(phases) * d * d))
    work = np.empty(2 * len(phases) * min(width, n) * d * d, dtype=np.complex128)
    worst = 0.0
    failing = []
    for i in range(n):
        deviation = np.empty(n - i)
        passed = np.empty(n - i, dtype=bool)
        row_grid = phases[:, exps[exps_row[i]]].conj() if exact[i] else None
        for j0 in range(i, n, width):
            j1 = min(j0 + width, n)
            rows, block = np.arange(j0, j1), exact[j0:j1]
            deviation[j0 - i : j1 - i], _, passed[j0 - i : j1 - i] = _block_verdicts(
                amps[i], row_grid, scales[i], amps[j0:j1],
                exps[exps_row[rows[block]]] if exact[i] else None, scales[j0:j1], block,
                rows == i, work, tol,
            )
        worst = max(worst, float(deviation.max()))
        failing.extend(
            {
                "a": mub_set.bases[i].label,
                "b": mub_set.bases[i + k].label,
                "max_residual": float(deviation[k]),
            }
            for k in np.flatnonzero(~passed)
        )
    details = {
        "dim": d,
        "n_bases": n,
        "n_pairs": n * (n - 1) // 2,
        "failing_pairs": failing,
        "exact": mub_set.exact,
    }
    if mub_set.forced:
        details["note"] = "not complete by construction"
    return VerificationReport(
        kind="mub_set",
        passed=not failing,
        tolerance=tol,
        max_residual=worst,
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
