"""Polar decomposition of the angular-momentum ladder operators.

The raising operator factors as j_plus = h v_a with h the nonnegative
Hermitian diagonal sqrt((j+m)(j-m+1)) and v_a the phased cyclic shift acting
on |j, m>.  j_minus = v_a^dagger h and j_z = (h^2 - v_a^dagger h^2 v_a)/2
complete the algebra, whose commutation relations hold for every phase
parameter a; a = 0 recovers the Condon-Shortley convention.

Storage order is highest weight first: column s holds |j, m> with m = j - s,
so j + m = two_j - s and j - m = s, and all structural quantities below are
plain integers.  Every operator here has at most one entry per row, a tau
power times the square root of an integer, so the relations are composed
and decided on those integers (weyl._Rows), exactly for every two_j and a.
"""

from dataclasses import dataclass

import numpy as np

from .report import VerificationReport
from .weyl import OperatorMatrix, _equality, _relation, _Rows, build_v

#: Largest 2j: norms of the row products reach about two_j**4 / 4 and must stay exact in int64.
MAX_TWO_J = 1 << 15


@dataclass(frozen=True)
class AngularParams:
    """2j (positive integer) and the phase parameter a in 0..2j."""

    two_j: int
    a: int

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError(f"two_j must be >= 1, got {self.two_j}")
        if self.two_j > MAX_TWO_J:
            raise ValueError(f"two_j must be <= {MAX_TWO_J}, got {self.two_j}")
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


def _ladder_rows(two_j: int, a: int) -> tuple[_Rows, _Rows, np.ndarray]:
    """(j_plus, j_minus, 2 j_z) = (h v_a, v_a^dagger h, h^2 - v_a^dagger h^2 v_a), composed by rows.

    h^2 and v_a^dagger h^2 v_a are integer diagonals, so 2 j_z comes out as integers.
    """
    AngularParams(two_j, a)
    d = two_j + 1
    h = _Rows(np.arange(d), np.zeros(d, dtype=np.int64), _h_squared(two_j))
    va = _Rows.monomial(d, a, 1, 0)
    va_dagger, h2 = va.dagger(), h @ h
    two_jz = h2.integers()[0] - (va_dagger @ h2 @ va).integers()[0]
    return h @ va, va_dagger @ h, two_jz


def build_ladder(two_j: int, a: int) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """(j_plus, j_minus, j_z) = (h v_a, v_a^dagger h, (h^2 - v_a^dagger h^2 v_a)/2), as matrices.

    They are filled from _ladder_rows; the halves (two_j - 2s)/2 = m of j_z
    are exact binary fractions.
    """
    j_plus, j_minus, two_jz = _ladder_rows(two_j, a)
    d = two_j + 1
    return (OperatorMatrix(d, j_plus.dense()), OperatorMatrix(d, j_minus.dense()),
            OperatorMatrix(d, np.diag(two_jz / 2.0)))


def _commutation_relations(j_plus: _Rows, j_minus: _Rows, two_jz: np.ndarray) -> dict:
    """(holds, residual) of each su(2) relation, decided on integers.

    - jz_jp, jz_jm: [j_z, j+-] = +-j+- as (2 j_z) j+- = j+- (2 j_z +- 2);
    - jp_jm: [j+, j-] = 2 j_z as j+ j- = j- j+ + 2 j_z, j- j+ an integer diagonal;
    - casimir: 4 (j+ j- + j_z^2 - j_z) = two_j (two_j + 2), on integer diagonals;
    - adjoint: j+ is the adjoint of j-; jz_action: 2 j_z = 2m = two_j - 2s.
    """
    d = len(two_jz)
    z = _Rows.diagonal(two_jz)
    plus_minus, minus_plus = j_plus @ j_minus, j_minus @ j_plus
    lowered, lowered_ok = minus_plus.integers()
    casimir = (d - 1) * (d + 1) - two_jz * two_jz + 2 * two_jz
    return {
        "jz_jp": _equality(z @ j_plus, j_plus @ _Rows.diagonal(two_jz + 2), scale=2),
        "jz_jm": _equality(z @ j_minus, j_minus @ _Rows.diagonal(two_jz - 2), scale=2),
        "jp_jm": _relation(lowered_ok & plus_minus.same(_Rows.diagonal(lowered + two_jz)),
                           (1, plus_minus), (-1, minus_plus), (-1, z)),
        "jz_action": _equality(z, _Rows.diagonal(d - 1 - 2 * np.arange(d)), scale=2),
        "adjoint": _equality(j_plus, j_minus.dagger()),
        "casimir": _relation((casimir % 4 == 0) & plus_minus.same(_Rows.diagonal(casimir // 4)),
                             (4, plus_minus), (-1, _Rows.diagonal(casimir)), scale=4),
    }


def _action_relations(j_plus: _Rows, j_minus: _Rows, a: int) -> dict:
    """(holds, residual) of j_plus and j_minus against their explicit actions.

    Raising: q**((j-m)a) sqrt((j-m)(j+m+1)) |j, m+1>, the stated upper-sign
    branch.  Lowering: the action of the composition v_a^dagger h,
    q**(-(j-m+1)a) sqrt((j+m)(j-m+1)) |j, m-1>, whose phase and magnitude
    differ from a naive sign flip of the raising branch.
    """
    d = j_plus.dim
    r = np.arange(d)
    raising = _Rows((r + 1) % d, 2 * (r + 1) * a % (2 * d), (r + 1) * (d - 1 - r))
    lowering = _Rows((r - 1) % d, -2 * r * a % (2 * d), r * (d - r))
    return {"raising": _equality(j_plus, raising), "lowering": _equality(j_minus, lowering)}


def _report(kind: str, relations: dict, **details) -> VerificationReport:
    """Passes when every relation holds."""
    residuals = {name: residual for name, (_, residual) in relations.items()}
    return VerificationReport(
        kind=kind,
        passed=all(holds for holds, _ in relations.values()),
        tolerance=None,
        max_residual=max(residuals.values()),
        details={**details, "residuals": residuals},
    )


def _check_su2_and_action(two_j: int, a: int) -> tuple[VerificationReport, VerificationReport]:
    """(check_su2, check_ladder_action) at (two_j, a), composing the ladder rows once."""
    j_plus, j_minus, two_jz = _ladder_rows(two_j, a)
    return (_report("su2_commutators", _commutation_relations(j_plus, j_minus, two_jz),
                    two_j=two_j, a=a),
            _report("ladder_action", _action_relations(j_plus, j_minus, a), two_j=two_j, a=a,
                    raising_checked_against="closed-form action (upper branch)",
                    lowering_checked_against="operator composition"))


def check_su2(two_j: int, a: int) -> VerificationReport:
    """Decide the commutators, the Casimir, adjointness and the j_z action at (two_j, a)."""
    return _check_su2_and_action(two_j, a)[0]


def check_ladder_action(two_j: int, a: int) -> VerificationReport:
    """Decide the explicit ladder actions row by row.

    The raising operator is checked against the closed-form action (its
    stated upper-sign branch), the lowering operator against the action of
    the composition v_a^dagger h.  The report records which source each
    side was checked against.
    """
    return _check_su2_and_action(two_j, a)[1]
