"""Generator matrices and their algebraic relations.

build_v produces the phased cyclic shift (superdiagonal of progressive
q-powers, wrap entry 1), build_z the clock matrix diag(1, q, ..., q**(d-1)),
and build_t their phase-corrected monomials T_m, all from one closed form.
The two q-commute, V_a = V_0 Z**a, and the T_m close under the sine-algebra
commutator.  A product of monomials is a monomial, so the commutator is
decided exactly from the composed tau exponents, for a whole grid of index
pairs at once, with a float residual from the same exponents as its shadow.
The q-commutation, the tensor labels of composite and the su(2) ladder
relations are decided on _Rows, which holds an operator with at most one
entry per row as integers (column, tau exponent, the integer under the
entry's square root) and composes two of them in O(d).  OperatorMatrix
keeps the dense matrices, with exact phase annotations where they exist.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import DEFAULT_TOL, CyclotomicSum, _frozen, _phase_table, check_tolerance
from .report import VerificationReport


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense d x d complex matrix, optionally annotated with exact phases.

    exact, when present, is an int64 grid of tau exponents mod 2*dim with -1
    marking an exactly-zero entry; entries are always regenerated from the
    annotation so the float shadow and the exact data never drift apart.
    """

    dim: int
    entries: np.ndarray
    exact: np.ndarray | None = None

    def __post_init__(self):
        entries = _frozen(self.entries, np.complex128)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {entries.shape}")
        object.__setattr__(self, "entries", entries)
        if self.exact is not None:
            exact = _frozen(self.exact, np.int64)
            if exact.shape != entries.shape:
                raise ValueError("exact annotation shape mismatch")
            object.__setattr__(self, "exact", exact)

    @property
    def phase_modulus(self) -> int:
        return 2 * self.dim

    @classmethod
    def from_exact(cls, exact) -> "OperatorMatrix":
        """Build from a tau-exponent grid (-1 = zero entry)."""
        exact = np.asarray(exact, dtype=np.int64)
        dim = exact.shape[0]
        mod = 2 * dim
        exact = np.where(exact < 0, -1, exact % mod)
        table = _phase_table(mod)
        entries = np.where(exact < 0, 0, table[np.where(exact < 0, 0, exact)])
        return cls(dim, entries, exact)

    @classmethod
    def identity(cls, dim: int) -> "OperatorMatrix":
        exact = np.full((dim, dim), -1, dtype=np.int64)
        np.fill_diagonal(exact, 0)
        return cls.from_exact(exact)

    def dagger(self) -> "OperatorMatrix":
        exact = None
        if self.exact is not None:
            e = self.exact.T
            exact = np.where(e < 0, -1, (-e) % self.phase_modulus)
        if exact is not None:
            return OperatorMatrix.from_exact(exact)
        return OperatorMatrix(self.dim, self.entries.conj().T)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        if self.exact is not None and other.exact is not None:
            nz_a = (self.exact >= 0).astype(np.int64)
            nz_b = (other.exact >= 0).astype(np.int64)
            count = nz_a @ nz_b
            if count.max() <= 1:
                # At most one product contributes per entry, so the sum of
                # exponents along the contributing path is the exact phase.
                sums = (np.where(nz_a, self.exact, 0) @ nz_b
                        + nz_a @ np.where(nz_b, other.exact, 0))
                exact = np.where(count == 1, sums % self.phase_modulus, -1)
                return OperatorMatrix.from_exact(exact)
        return OperatorMatrix(self.dim, self.entries @ other.entries)

    def power(self, n: int) -> "OperatorMatrix":
        """n-th power by repeated multiplication (keeps exact annotations)."""
        if n < 0:
            raise ValueError("negative powers not supported")
        out = OperatorMatrix.identity(self.dim)
        for _ in range(n):
            out = out @ self
        return out

    def scale_phase(self, exponent: int) -> "OperatorMatrix":
        """Multiply by the global phase tau**exponent."""
        mod = self.phase_modulus
        exponent %= mod
        if self.exact is not None:
            exact = np.where(self.exact < 0, -1, (self.exact + exponent) % mod)
            return OperatorMatrix.from_exact(exact)
        return OperatorMatrix(self.dim, self.entries * _phase_table(mod)[exponent])

    def tensor(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Kronecker product; exact phases re-encoded into the joint modulus."""
        if self.exact is not None and other.exact is not None:
            ea, eb = self.exact, other.exact
            # tau_d1**k = tau_{d1*d2}**(k*d2), likewise for the right factor.
            scaled_a = np.where(ea < 0, -1, ea * other.dim)
            scaled_b = np.where(eb < 0, -1, eb * self.dim)
            both = (scaled_a[:, None, :, None] >= 0) & (scaled_b[None, :, None, :] >= 0)
            summed = (np.where(scaled_a < 0, 0, scaled_a)[:, None, :, None]
                      + np.where(scaled_b < 0, 0, scaled_b)[None, :, None, :])
            dim = self.dim * other.dim
            exact = np.where(both, summed % (2 * dim), -1).reshape(dim, dim)
            return OperatorMatrix.from_exact(exact)
        dim = self.dim * other.dim
        return OperatorMatrix(dim, np.kron(self.entries, other.entries))

    def unitarity_residual(self) -> float:
        gram = self.entries @ self.entries.conj().T
        return float(np.abs(gram - np.eye(self.dim)).max())

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        return self.unitarity_residual() < tol


def exact_equal(a: OperatorMatrix, b: OperatorMatrix) -> bool:
    """Exact matrix equality via phase annotations (False if unavailable)."""
    if a.exact is None or b.exact is None or a.dim != b.dim:
        return False
    return bool(np.array_equal(a.exact, b.exact))


@dataclass(frozen=True)
class WedgeIndex:
    """A monomial exponent pair m = (m1, m2) with the wedge m ^ n = m1 n2 - m2 n1."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError(f"components must be nonnegative, got ({self.m1}, {self.m2})")

    def __add__(self, other: "WedgeIndex") -> "WedgeIndex":
        other = as_wedge(other)
        return WedgeIndex(self.m1 + other.m1, self.m2 + other.m2)

    def wedge(self, other: "WedgeIndex") -> int:
        other = as_wedge(other)
        return self.m1 * other.m2 - self.m2 * other.m1


def as_wedge(m) -> WedgeIndex:
    if isinstance(m, WedgeIndex):
        return m
    return WedgeIndex(int(m[0]), int(m[1]))


# -- constructions -----------------------------------------------------------


def _monomial_rows(d: int, a, m1, m2, phase) -> np.ndarray:
    """Tau exponent of the one entry in each row of tau**phase V_a**m1 Z**m2.

    The arguments broadcast; the result has their shape plus (d,).  Row r
    holds its entry at column c = (r + m1) mod d.  The shifts on the way
    there pick up q**(a (r+j)) for j = 1..m1 (q**d = 1, so the wrap of the
    row index needs no reduction), and the clock adds q**(m2 c): in tau
    exponents a m1 (2r + m1 + 1) + 2 m2 c + phase, mod 2d.
    """
    a, m1, m2, phase = (np.asarray(v, dtype=np.int64)[..., None] for v in (a, m1, m2, phase))
    r = np.arange(d)
    return (a * m1 * (2 * r + m1 + 1) + 2 * m2 * ((r + m1) % d) + phase) % (2 * d)


@dataclass(frozen=True)
class _Rows:
    """An operator with at most one entry per row: tau**exp[r] sqrt(norm[r]) at column col[r].

    exp is reduced mod 2d and norm 0 marks a zero row.  V_a, Z, T_m, the
    tensor labels, h and the ladder operators have this form, and so does
    every product of them: row r of X Y is row r of X times row col[r] of Y,
    in O(d).  Leading axes stack operators and broadcast in products.
    """

    col: np.ndarray
    exp: np.ndarray
    norm: np.ndarray

    @classmethod
    def monomial(cls, d: int, a, m1, m2, phase=0) -> "_Rows":
        """tau**phase V_a**m1 Z**m2 (_monomial_rows); the arguments broadcast."""
        exp = _monomial_rows(d, a, m1, m2, phase)
        col = (np.arange(d) + np.asarray(m1, dtype=np.int64)[..., None]) % d
        return cls(np.broadcast_to(col, exp.shape), exp, np.ones_like(exp))

    @classmethod
    def diagonal(cls, values) -> "_Rows":
        """The diagonal operator with the given integer entries."""
        values = np.asarray(values, dtype=np.int64)
        return cls(np.arange(len(values)), np.where(values < 0, len(values), 0), values * values)

    @property
    def dim(self) -> int:
        return self.col.shape[-1]

    def __getitem__(self, index) -> "_Rows":
        return _Rows(self.col[index], self.exp[index], self.norm[index])

    def __matmul__(self, other: "_Rows") -> "_Rows":
        def pick(values):
            # stacks on both sides need take_along_axis; one side alone gathers directly
            if values.ndim == 1:
                return values[self.col]
            if self.col.ndim == 1:
                return values[..., self.col]
            return np.take_along_axis(values, self.col, axis=-1)

        exp = (self.exp + pick(other.exp)) % (2 * self.dim)
        return _Rows(pick(other.col), exp, self.norm * pick(other.norm))

    def dagger(self) -> "_Rows":
        """The adjoint of one operator whose columns are a permutation."""
        inverse = np.argsort(self.col)
        return _Rows(inverse, -self.exp[inverse] % (2 * self.dim), self.norm[inverse])

    def same(self, other: "_Rows") -> np.ndarray:
        """Rowwise exact equality."""
        entry = (self.col == other.col) & (self.exp == other.exp)
        return (self.norm == other.norm) & ((self.norm == 0) | entry)

    def integers(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, ok), ok where a row is zero or an integer on the diagonal.

        A perfect square below 2**63 rounds to its exact root from the float one.
        """
        root = np.rint(np.sqrt(self.norm)).astype(np.int64)
        diagonal = (self.col == np.arange(self.dim)) & (self.exp % self.dim == 0)
        ok = (self.norm == 0) | diagonal & (root * root == self.norm)
        return np.where(self.exp == self.dim, -root, root), ok

    def values(self) -> np.ndarray:
        return _phase_table(2 * self.dim)[self.exp] * np.sqrt(self.norm)

    def exact(self) -> np.ndarray:
        """The (..., d, d) tau-exponent grid, -1 off the entries; every norm must be 1."""
        return np.where(self.col[..., None] == np.arange(self.dim), self.exp[..., None], -1)

    def dense(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[np.arange(self.dim), self.col] = self.values()
        return out


def _relation(holds, *terms, scale: int = 1) -> tuple[bool, float]:
    """(holds, residual) for sum(k X for k, X in terms) == 0, the verdict from the integers.

    The residual is 0.0 when it holds, else the largest entry modulus of the
    sum over scale, evaluated from the integers.
    """
    if np.all(holds):
        return True, 0.0
    d = terms[0][1].dim
    _, entry = np.unique(np.concatenate([np.arange(d) * d + x.col for _, x in terms]),
                         return_inverse=True)
    values = np.concatenate([k * x.values() for k, x in terms])
    total = np.bincount(entry, values.real) + 1j * np.bincount(entry, values.imag)
    return False, float(np.abs(total).max()) / scale


def _equality(lhs: _Rows, rhs: _Rows, scale: int = 1) -> tuple[bool, float]:
    return _relation(lhs.same(rhs), (1, lhs), (-1, rhs), scale=scale)


def build_v(d: int, a: int) -> OperatorMatrix:
    """The phased cyclic shift: (k, k+1) entry q**((k+1)a), wrap entry 1.

    Rows and columns are in spherical storage order (highest weight first).
    """
    _check_dim_param(d, a)
    return OperatorMatrix.from_exact(_Rows.monomial(d, a, 1, 0).exact())


def build_z(d: int) -> OperatorMatrix:
    """The clock matrix diag(1, q, ..., q**(d-1))."""
    _check_dim_param(d, 0)
    return OperatorMatrix.from_exact(_Rows.monomial(d, 0, 0, 1).exact())


def character_vector(d: int, a: int) -> tuple:
    """The length-d character (1, q**a, ..., q**((d-1)a)) as phase exponents."""
    from .cyclo import PhaseExponent

    _check_dim_param(d, a)
    return tuple(PhaseExponent(2 * k * a, 2 * d) for k in range(d))


def build_t(d: int, a: int, m, sign_convention: int = +1) -> OperatorMatrix:
    """The monomial q**(sign * m1*m2/2) V_a**m1 Z**m2, phase carried exactly."""
    m = as_wedge(m)
    if sign_convention not in (+1, -1):
        raise ValueError("sign_convention must be +1 or -1")
    _check_dim_param(d, a)
    phase = sign_convention * m.m1 * m.m2
    return OperatorMatrix.from_exact(_Rows.monomial(d, a, m.m1, m.m2, phase).exact())


def _check_dim_param(d: int, a: int) -> None:
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not 0 <= a <= d - 1:
        raise ValueError(f"a must be in 0..{d - 1}, got {a}")


# -- verifiers ---------------------------------------------------------------


def trace_inner_exact(a: OperatorMatrix, b: OperatorMatrix) -> CyclotomicSum:
    """Tr(A^dagger B) as an exact cyclotomic sum (both matrices annotated)."""
    if a.exact is None or b.exact is None:
        raise ValueError("exact annotations required")
    both = (a.exact >= 0) & (b.exact >= 0)
    diffs = (b.exact - a.exact)[both]
    return CyclotomicSum.from_exponent_counts(diffs, a.dim)


def q_commutation_residual(d: int, a: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """V_a Z = q Z V_a, decided on rows; tol is validated and recorded, not read."""
    check_tolerance(tol)
    _check_dim_param(d, a)
    v, z, q = (_Rows.monomial(d, *args) for args in ((a, 1, 0), (0, 0, 1), (0, 0, 0, 2)))
    exact_zero, residual = _equality(v @ z, q @ z @ v)
    return VerificationReport(
        kind="q_commutation",
        passed=exact_zero,
        tolerance=tol,
        max_residual=residual,
        details={"d": d, "a": a, "exact_zero": exact_zero},
    )


def _unit_sums_equal(u1, u2, v1, v2, two_d: int) -> np.ndarray:
    """tau**u1 + tau**u2 == tau**v1 + tau**v2, elementwise, for exponents mod two_d.

    u1 and v1 must be reduced to 0..two_d-1; u2 and v2 may be any integers.
    Two roots of unity with a given nonzero sum are fixed up to order; sums
    that vanish are antipodal pairs, whose reduced exponents differ by two_d / 2.
    """
    u2, v2 = np.asarray(u2) % two_d, np.asarray(v2) % two_d
    antipodal = (np.abs(u1 - u2) == two_d // 2) & (np.abs(v1 - v2) == two_d // 2)
    return ((u1 == v1) & (u2 == v2)) | ((u1 == v2) & (u2 == v1)) | antipodal


#: Elements (m rows x n rows x d) that one block of _commutator_residuals holds.
_FFZ_BLOCK = 1 << 13


def _commutator_residuals(d: int, a: int, sigma: int, ms, ns) -> tuple[np.ndarray, np.ndarray]:
    """Float residuals and exact verdicts of [T_m, T_n] = 2i sin(pi m^n/d) T_{m+n}, each (M, N).

    ms (M, 2) and ns (N, 2) hold nonnegative index pairs.  T_m T_n is the
    monomial with row exponents x_r = e_m(r) + e_n((r + m1) mod d) on the
    support of T_{m+n} (row exponents e_r), and T_n T_m gives x'_r likewise.
    With w = m^n and 2i sin(pi w/d) = tau**w - tau**(-w), the identity holds
    exactly iff tau**x + tau**(e-w) = tau**x' + tau**(e+w) in every row
    (_unit_sums_equal).  The residual max_r |tau**x - tau**x' - 2i sin(pi w/d)
    tau**e| is the float shadow.  A block of m rows meets the whole stack of
    n in one broadcast, as many rows as keep the block within _FFZ_BLOCK
    elements, so memory is bounded by the block (or by one m row of N d
    elements when that is larger), not by the whole M N d grid.
    """
    _check_dim_param(d, a)
    if sigma not in (+1, -1):
        raise ValueError("sign_convention must be +1 or -1")
    ms = np.asarray(ms, dtype=np.int64).reshape(-1, 2)
    n1, n2 = np.asarray(ns, dtype=np.int64).reshape(-1, 2).T
    two_d, r = 2 * d, np.arange(d)
    table = _phase_table(two_d)

    def rows(m1, m2):
        return _monomial_rows(d, a, m1, m2, sigma * m1 * m2)

    e_n = rows(n1, n2)
    n_index = np.arange(len(n1))[:, None]
    shifted = (r + n1[:, None]) % d
    residual = np.empty((len(ms), len(n1)))
    exact = np.empty((len(ms), len(n1)), dtype=bool)
    step = max(1, _FFZ_BLOCK // max(1, len(n1) * d))
    for start in range(0, len(ms), step):
        # (B, 1) m rows against the (N,) n stack; row exponents are (B, N, d)
        m1, m2 = ms[start:start + step, :, None].transpose(1, 0, 2)
        e_m, e = rows(m1[:, 0], m2[:, 0]), rows(m1 + n1, m2 + n2)
        x = (e_m[:, None] + e_n[n_index, (r + m1[..., None]) % d]) % two_d
        x_rev = (e_n + e_m[:, shifted]) % two_d
        w = (m1 * n2 - m2 * n1)[..., None]
        block = slice(start, start + step)
        exact[block] = _unit_sums_equal(x, e - w, x_rev, e + w, two_d).all(axis=-1)
        sine = 2j * np.sin(np.pi * w / d)
        residual[block] = np.abs(table[x] - table[x_rev] - sine * table[e]).max(axis=-1)
    return residual, exact


@lru_cache(maxsize=None)
def select_ffz_sign_convention() -> int:
    """Pick the monomial prefactor sign satisfying the sine-algebra commutator.

    Decides both signs exactly at d = 3, a = 0 over every pair of indices in
    0..2; exactly one of the two candidate signs passes and is returned.
    """
    grid = [(m1, m2) for m1 in range(3) for m2 in range(3)]
    winners = [s for s in (+1, -1) if _commutator_residuals(3, 0, s, grid, grid)[1].all()]
    if len(winners) != 1:
        raise RuntimeError(f"sign selection did not isolate one convention: {winners}")
    return winners[0]


def ffz_commutator_residual(
    d: int, a: int, m, n, sign_convention: int | None = None, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """[T_m, T_n] = 2i sin(pi (m^n)/d) T_{m+n}, decided exactly, with its float residual."""
    m = as_wedge(m)
    n = as_wedge(n)
    sigma = select_ffz_sign_convention() if sign_convention is None else sign_convention
    residuals, exact = _commutator_residuals(d, a, sigma, [(m.m1, m.m2)], [(n.m1, n.m2)])
    residual, exact = float(residuals[0, 0]), bool(exact[0, 0])
    return VerificationReport(
        kind="ffz_commutator",
        passed=exact and residual < tol,
        tolerance=tol,
        max_residual=residual,
        details={
            "d": d,
            "a": a,
            "m": [m.m1, m.m2],
            "n": [n.m1, n.m2],
            "wedge": m.wedge(n),
            "sign_convention": sigma,
            "exact": exact,
        },
    )


def ffz_sweep(
    d: int, a: int, max_m: int | None = None, sign_convention: int | None = None,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Sweep the commutator identity over all m, n with components 0..max_m.

    The swept range includes 0 (so T_(1,0) = V_a and T_(0,1) = Z appear),
    which widens the strictly-positive index set the identity is stated for;
    the report records the range.  The sweep passes when every pair holds
    exactly and its float shadow stays below tol.  The failure of the
    opposite sign at the basic pair (1,0),(0,1) is recorded as a negative
    control.
    """
    check_tolerance(tol)
    if max_m is None:
        max_m = 2 * d - 1
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    sigma = select_ffz_sign_convention() if sign_convention is None else sign_convention
    grid = [(m1, m2) for m1 in range(max_m + 1) for m2 in range(max_m + 1)]
    residuals, exact = _commutator_residuals(d, a, sigma, grid, grid)
    exact = bool(exact.all())
    i, j = np.unravel_index(residuals.argmax(), residuals.shape)
    worst = float(residuals[i, j])
    worst_pair = (list(grid[i]), list(grid[j])) if worst > 0 else None

    opposite = ffz_commutator_residual(d, a, (1, 0), (0, 1), sign_convention=-sigma, tol=tol)
    return VerificationReport(
        kind="ffz_sweep",
        passed=exact and worst < tol,
        tolerance=tol,
        max_residual=worst,
        details={
            "d": d,
            "a": a,
            "m_range": [0, max_m],
            "includes_zero_indices": True,
            "sign_convention": sigma,
            "worst_pair": worst_pair,
            "opposite_sign_residual_at_basic_pair": opposite.max_residual,
            "opposite_sign_fails": not opposite.passed,
            "exact": exact,
        },
    )
