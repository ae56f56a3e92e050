"""Polar decomposition of the angular-momentum ladder operators.

The raising operator factors as j_plus = h v_a with h the nonnegative
Hermitian diagonal sqrt((j+m)(j-m+1)) and v_a the phased cyclic shift acting
on |j, m>.  j_minus = v_a^dagger h and j_z = (h^2 - v_a^dagger h^2 v_a)/2
complete the algebra, whose commutation relations hold for every phase
parameter a; a = 0 recovers the Condon-Shortley convention.

Storage order is highest weight first: column s holds |j, m> with m = j - s,
so j + m = two_j - s and j - m = s, and all structural quantities below are
plain integers.
"""

from dataclasses import dataclass

import numpy as np

from .cyclo import DEFAULT_TOL, _phase_table, check_tolerance
from .report import VerificationReport
from .weyl import OperatorMatrix, build_v


@dataclass(frozen=True)
class AngularParams:
    """2j (positive integer) and the phase parameter a in 0..2j."""

    two_j: int
    a: int

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError(f"two_j must be >= 1, got {self.two_j}")
        if not 0 <= self.a <= self.two_j:
            raise ValueError(f"a must be in 0..{self.two_j}, got {self.a}")

    @property
    def dim(self) -> int:
        return self.two_j + 1


def _h_squared(two_j: int) -> np.ndarray:
    """(j+m)(j-m+1) = (two_j - s)(s + 1) down the diagonal, as integers."""
    s = np.arange(two_j + 1)
    return (two_j - s) * (s + 1)


def build_h(two_j: int) -> OperatorMatrix:
    """Diagonal sqrt((j+m)(j-m+1)); Hermitian, nonnegative, zero at m = -j."""
    if two_j < 1:
        raise ValueError(f"two_j must be >= 1, got {two_j}")
    return OperatorMatrix(two_j + 1, np.diag(np.sqrt(_h_squared(two_j).astype(float))))


def build_va_operator(two_j: int, a: int) -> OperatorMatrix:
    """The unitary shift v_a: |j, m> -> q**((j-m)a) |j, m+1> for m < j, |j, j> -> |j, -j>.

    In storage order this is the Weyl shift build_v(2j + 1, a).
    """
    AngularParams(two_j, a)
    return build_v(two_j + 1, a)


def _shift_permutation(va: OperatorMatrix) -> np.ndarray:
    """Row index of the single nonzero entry in each column of v_a."""
    return np.argmax(va.exact >= 0, axis=0)


def build_ladder(two_j: int, a: int) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(j_plus, j_minus, j_z) = (h v_a, v_a^dagger h, (h^2 - v_a^dagger h^2 v_a)/2).

    j_z is evaluated with symbolic phase cancellation: v_a is a generalized
    permutation, so conjugating the integer diagonal h^2 by it permutes the
    diagonal exactly and the halves (two_j - 2s)/2 = m come out exact.  The
    wrap column of v_a is annihilated in j_plus by h's zero at m = -j; this
    is asserted rather than assumed.
    """
    params = AngularParams(two_j, a)
    d = params.dim
    h = build_h(two_j)
    va = build_va_operator(two_j, a)
    j_plus = OperatorMatrix(d, h.entries @ va.entries)
    j_minus = OperatorMatrix(d, va.dagger().entries @ h.entries)
    assert np.all(j_plus.entries[:, 0] == 0), "wrap column must be annihilated by h"
    h2 = _h_squared(two_j)
    perm = _shift_permutation(va)
    j_z = OperatorMatrix(d, np.diag((h2 - h2[perm]) / 2.0))
    return j_plus, j_minus, j_z


def _m_values(two_j: int) -> np.ndarray:
    """m = j - s in storage order, as exact binary fractions."""
    return (two_j - 2 * np.arange(two_j + 1)) / 2.0


def su2_residuals(
    j_plus: np.ndarray, j_minus: np.ndarray, j_z: np.ndarray, two_j: int
) -> dict:
    """Commutator, action, adjointness and Casimir residuals for given matrices."""
    d = two_j + 1
    m = _m_values(two_j)
    casimir = two_j * (two_j + 2) / 4.0
    return {
        "jz_jp": float(np.abs(j_z @ j_plus - j_plus @ j_z - j_plus).max()),
        "jz_jm": float(np.abs(j_z @ j_minus - j_minus @ j_z + j_minus).max()),
        "jp_jm": float(np.abs(j_plus @ j_minus - j_minus @ j_plus - 2 * j_z).max()),
        "jz_action": float(np.abs(j_z - np.diag(m)).max()),
        "adjoint": float(np.abs(j_minus - j_plus.conj().T).max()),
        "casimir": float(
            np.abs(j_plus @ j_minus + j_z @ j_z - j_z - casimir * np.eye(d)).max()
        ),
    }


def check_su2(two_j: int, a: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify the commutation relations and the j_z action at (two_j, a)."""
    check_tolerance(tol)
    j_plus, j_minus, j_z = build_ladder(two_j, a)
    residuals = su2_residuals(j_plus.entries, j_minus.entries, j_z.entries, two_j)
    worst = max(residuals.values())
    return VerificationReport(
        kind="su2_commutators",
        passed=worst < tol,
        tolerance=tol,
        max_residual=worst,
        details={"two_j": two_j, "a": a, "residuals": residuals},
    )


def _raising_target(two_j: int, a: int) -> np.ndarray:
    """Closed-form raising action q**((j-m)a) sqrt((j-m)(j+m+1)) |j, m+1>."""
    d = two_j + 1
    table = _phase_table(2 * d)
    target = np.zeros((d, d), dtype=np.complex128)
    for s in range(1, d):  # j - m = s, j + m + 1 = two_j - s + 1
        target[s - 1, s] = table[(2 * s * a) % (2 * d)] * np.sqrt(s * (two_j - s + 1))
    return target


def _lowering_target(two_j: int, a: int) -> np.ndarray:
    """Lowering action from the composition: q**(-(j-m+1)a) sqrt((j+m)(j-m+1))."""
    d = two_j + 1
    table = _phase_table(2 * d)
    target = np.zeros((d, d), dtype=np.complex128)
    for s in range(d - 1):  # j + m = two_j - s, j - m + 1 = s + 1
        target[s + 1, s] = table[(-2 * (s + 1) * a) % (2 * d)] * np.sqrt(
            (two_j - s) * (s + 1)
        )
    return target


def check_ladder_action(two_j: int, a: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify the explicit ladder actions entry by entry.

    The raising operator is checked against the closed-form action (its
    stated upper-sign branch); the lowering operator is checked against the
    composition v_a^dagger h directly, whose phase exponent -(j-m+1)a and
    magnitude sqrt((j+m)(j-m+1)) differ from a naive sign flip of the
    raising branch.  The report records which source each side was checked
    against.
    """
    AngularParams(two_j, a)
    j_plus, j_minus, _ = build_ladder(two_j, a)
    res_plus = float(np.abs(j_plus.entries - _raising_target(two_j, a)).max())
    res_minus = float(np.abs(j_minus.entries - _lowering_target(two_j, a)).max())
    worst = max(res_plus, res_minus)
    return VerificationReport(
        kind="ladder_action",
        passed=worst < tol,
        tolerance=tol,
        max_residual=worst,
        details={
            "two_j": two_j,
            "a": a,
            "raising_residual": res_plus,
            "lowering_residual": res_minus,
            "raising_checked_against": "closed-form action (upper branch)",
            "lowering_checked_against": "operator composition",
        },
    )
