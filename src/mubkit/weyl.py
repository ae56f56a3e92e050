"""Generator matrices and their algebraic relations.

build_v produces the phased cyclic shift (superdiagonal of progressive
q-powers, wrap entry 1), build_z the clock matrix diag(1, q, ..., q**(d-1)),
and build_t their phase-corrected monomials T_m, all from one closed form.
The two q-commute, V_a = V_0 Z**a, and the T_m close under the sine-algebra
commutator.  _Rows holds an operator with one entry per row as integers
and composes two in O(d), for the q-commutation and su(2) relations;
_affine_rows reads the shift, phase and slope of monomials (T_m, the labels
of composite), and the group law on them decides the commutators.
OperatorMatrix keeps the dense matrices, with exact phase annotations.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CyclotomicSum, _frozen, _phase_table, _points, _unit_slots
from .report import VerificationReport


def _tau_powers(exact: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exact reduced mod 2d, -1 for each negative exponent; the tau powers it names, 0 at -1)."""
    mod = 2 * exact.shape[0]
    exact = np.where(exact < 0, -1, exact % mod)
    return exact, np.where(exact < 0, 0, _phase_table(mod)[exact])


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense d x d complex matrix, optionally annotated with exact phases.

    exact, when present, is an int64 grid of tau exponents, reduced here mod
    2*dim with -1 marking an exactly-zero entry (any negative exponent); the
    entries must be exactly the tau powers it names, else ValueError, so
    the float shadow and the exact data never drift apart.
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
            exact = np.asarray(self.exact, dtype=np.int64)
            if exact.shape != entries.shape:
                raise ValueError("exact annotation shape mismatch")
            exact, powers = _tau_powers(exact)
            if not np.array_equal(entries, powers):
                raise ValueError("entries must be the tau powers the exact annotation names")
            object.__setattr__(self, "exact", _frozen(exact, np.int64))

    @property
    def phase_modulus(self) -> int:
        return 2 * self.dim

    @classmethod
    def from_exact(cls, exact) -> "OperatorMatrix":
        """Build from a tau-exponent grid (-1 = zero entry)."""
        exact = np.asarray(exact, dtype=np.int64)
        return cls(exact.shape[0], _tau_powers(exact)[1], exact)

    @classmethod
    def identity(cls, dim: int) -> "OperatorMatrix":
        return cls.from_exact(np.eye(dim, dtype=np.int64) - 1)

    def dagger(self) -> "OperatorMatrix":
        if self.exact is None:
            return OperatorMatrix(self.dim, self.entries.conj().T)
        return OperatorMatrix.from_exact(np.where(self.exact.T < 0, -1, -self.exact.T % (2 * self.dim)))

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
        dim = self.dim * other.dim
        if self.exact is not None and other.exact is not None:
            # tau_d1**k = tau_{d1*d2}**(k*d2), likewise for the right factor.
            ea, eb = self.exact[:, None, :, None], other.exact[None, :, None, :]
            summed = (ea * other.dim + eb * self.dim) % (2 * dim)
            exact = np.where((ea >= 0) & (eb >= 0), summed, -1).reshape(dim, dim)
            return OperatorMatrix.from_exact(exact)
        return OperatorMatrix(dim, np.kron(self.entries, other.entries))

    def unitarity_residual(self) -> float:
        gram = self.entries @ self.entries.conj().T
        return float(np.abs(gram - np.eye(self.dim)).max())


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
    exponents a m1 (2r + m1 + 1) + 2 m2 c + phase, mod 2d.  The arguments
    are reduced mod 2d first (V_a**(2d) = Z**(2d) = 1), so no product overflows.
    """
    a, m1, m2, phase = (np.asarray(v, dtype=np.int64)[..., None] % (2 * d) for v in (a, m1, m2, phase))
    r = np.arange(d)
    return (a * m1 * (2 * r + m1 + 1) + 2 * m2 * ((r + m1) % d) + phase) % (2 * d)


@dataclass(frozen=True)
class _Rows:
    """An operator with at most one entry per row: tau**exp[r] sqrt(norm[r]) at column col[r].

    exp is reduced mod 2d and norm 0 marks a zero row.  V_a, Z, T_m, the
    tensor labels, h and the ladder operators have this form, and so does
    every product of them: row r of X Y is row r of X times row col[r] of Y,
    in O(d).  Leading axes stack operators (products take one of each).
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

    def __matmul__(self, other: "_Rows") -> "_Rows":
        exp = (self.exp + other.exp[self.col]) % (2 * self.dim)
        return _Rows(other.col[self.col], exp, self.norm * other.norm[self.col])

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


def _affine_rows(rows: _Rows, b: int, e: int = 1) -> tuple:
    """(shift, alpha, beta, ok) of stacked operators with rows r in Z_b**e, d = b**e.

    Rows and columns are the points of Z_b**e in cyclo._points order.  ok
    holds where every row r is tau**(alpha + beta.r) at column r + shift
    (digitwise mod b) and every beta_i is a multiple of 2d/b, as for T_m
    (b = d, e = 1) and the labels of composite (b = p).  Then X Y has shift
    s_X + s_Y, slope beta_X + beta_Y and phase alpha_X + alpha_Y + beta_Y.s_X
    (mod 2d): b beta_Y = 0 mod 2d drops the digit wrap of r + s_X.
    """
    two_d = 2 * rows.dim
    digits, weights = _points(b, e), _unit_slots(b, e)
    shift, alpha = digits[rows.col[..., 0]], rows.exp[..., 0]
    beta = (rows.exp[..., weights] - alpha[..., None]) % two_d
    ok = ((rows.col == (digits + shift[..., None, :]) % b @ weights)
          & (rows.exp == (alpha[..., None] + beta @ digits.T) % two_d) & (rows.norm == 1))
    return shift, alpha, beta, ok.all(axis=-1) & (beta % (two_d // b) == 0).all(axis=-1)


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
    _check_dim_param(d, a, sign_convention)
    phase = sign_convention * m.m1 * m.m2 % (2 * d)
    return OperatorMatrix.from_exact(_Rows.monomial(d, a, m.m1, m.m2, phase).exact())


def _check_dim_param(d: int, a: int, sign_convention: int = +1) -> None:
    if sign_convention not in (+1, -1):
        raise ValueError("sign_convention must be +1 or -1")
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


def q_commutation_residual(d: int, a: int) -> VerificationReport:
    """V_a Z = q Z V_a, decided on rows."""
    _check_dim_param(d, a)
    v, z, q = (_Rows.monomial(d, *args) for args in ((a, 1, 0), (0, 0, 1), (0, 0, 0, 2)))
    exact_zero, residual = _equality(v @ z, q @ z @ v)
    return VerificationReport(
        kind="q_commutation",
        passed=exact_zero,
        tolerance=None,
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


#: Index pairs (m rows x n rows) that one block of _commutator_blocks holds.
_FFZ_BLOCK = 1 << 13

#: Most index pairs one ffz_sweep decides; a larger sweep is refused before anything is built.
FFZ_MAX_PAIRS = 1 << 25


def _commutator_blocks(d: int, a: int, sigma: int, ms, ns):
    """Yield (rows, holds, residual) of [T_m, T_n] = 2i sin(pi m^n/d) T_{m+n}, m in ms, n in ns.

    T_m, T_n and T_{m+n} (indices mod 2d) are recognized once (_affine_rows);
    by the group law T_m T_n and T_n T_m are tau**c T_{m+n} and tau**c' T_{m+n}
    if T_{m+n} has their shift and slope, and then, with w = m^n, the identity
    holds iff tau**c + tau**(-w) = tau**c' + tau**w; otherwise iff both sides
    vanish (w = 0 mod d, c = c').  An unrecognized operator fails.  A failing
    pair's residual is the largest entry modulus of the difference, else 0.0.
    A block (rows, a slice of ms) holds (B, N) pairs: _FFZ_BLOCK, or one m row.
    """
    _check_dim_param(d, a, sigma)
    two_d, table = 2 * d, _phase_table(2 * d)

    def distinct(values):  # increasing, mod 2d; np.unique would import numpy.ma
        return np.flatnonzero(np.bincount(values.ravel() % two_d, minlength=two_d))

    def recognized(m1, m2):
        shift, alpha, beta, ok = _affine_rows(_Rows.monomial(d, a, m1, m2, sigma * m1 * m2), d)
        return shift[..., 0], alpha, beta[..., 0], ok

    ms, ns = (np.asarray(k, dtype=np.int64).reshape(-1, 2) % two_d for k in (ms, ns))
    # component j of every m + n is one of sums[j]; place[j][m_j + n_j] is its index there
    sums = [distinct(np.add.outer(distinct(ms[:, j]), distinct(ns[:, j]))) for j in (0, 1)]
    place = np.zeros((2, 2 * two_d), dtype=np.int64)
    for j in (0, 1):
        place[j, sums[j]] = place[j, sums[j] + two_d] = np.arange(len(sums[j]))
    s_m, al_m, be_m, ok_m = recognized(ms[:, :1], ms[:, 1:])
    s_n, al_n, be_n, ok_n = recognized(*ns.T)
    s_k, al_k, be_k, ok_k = recognized(sums[0][:, None], sums[1])
    step = max(1, _FFZ_BLOCK // max(1, len(ns)))
    for start in range(0, len(ms), step):
        rows = slice(start, start + step)
        (m1, m2), (n1, n2) = ms[rows, :, None].transpose(1, 0, 2), ns.T
        k = place[0, m1 + n1], place[1, m2 + n2]
        w = (m1 * n2 - m2 * n1) % two_d
        base = al_m[rows] + al_n - al_k[k]
        c, c_rev = (base + be_n * s_m[rows]) % two_d, (base + be_m[rows] * s_n) % two_d
        ok = ok_m[rows] & ok_n & ok_k[k]
        regular = ok & ((s_m[rows] + s_n) % d == s_k[k]) & ((be_m[rows] + be_n) % two_d == be_k[k])
        holds = (regular | ok & (w % d == 0)) & _unit_sums_equal(c, -w, c_rev, w, two_d)
        residual, fail = np.zeros(holds.shape), ~holds
        sine = table[w[fail]] - table[-w[fail] % two_d]
        residual[fail] = np.abs(table[c[fail]] - table[c_rev[fail]] - sine)
        for i, j in np.argwhere(fail & ~regular):
            x, y, z = (_Rows.monomial(d, a, *v, sigma * v[0] * v[1])
                       for v in (ms[start + i], ns[j], ms[start + i] + ns[j]))
            sine = table[w[i, j]] - table[-w[i, j] % two_d]
            residual[i, j] = _relation(False, (1, x @ y), (-1, y @ x), (-sine, z))[1]
        yield rows, holds, residual


@lru_cache(maxsize=None)
def select_ffz_sign_convention() -> int:
    """Pick the monomial prefactor sign satisfying the sine-algebra commutator.

    Decides both signs exactly at d = 3, a = 0 over every pair of indices in
    0..2; exactly one of the two candidate signs passes and is returned.
    """
    winners = [s for s in (+1, -1) if ffz_sweep(3, 0, 2, sign_convention=s).passed]
    if len(winners) != 1:
        raise RuntimeError(f"sign selection did not isolate one convention: {winners}")
    return winners[0]


def ffz_commutator_residual(
    d: int, a: int, m, n, sign_convention: int | None = None
) -> VerificationReport:
    """[T_m, T_n] = 2i sin(pi (m^n)/d) T_{m+n}, decided on integers."""
    m, n = as_wedge(m), as_wedge(n)
    sigma = select_ffz_sign_convention() if sign_convention is None else sign_convention
    [(_, holds, residual)] = _commutator_blocks(d, a, sigma, [(m.m1, m.m2)], [(n.m1, n.m2)])
    exact = bool(holds[0, 0])
    return VerificationReport(
        kind="ffz_commutator",
        passed=exact,
        tolerance=None,
        max_residual=float(residual[0, 0]),
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
    d: int, a: int, max_m: int | None = None, sign_convention: int | None = None
) -> VerificationReport:
    """Sweep the commutator identity over all m, n with components 0..max_m.

    The swept range includes 0 (so T_(1,0) = V_a and T_(0,1) = Z appear),
    which widens the strictly-positive index set the identity is stated for;
    the report records the range.  It passes when every pair holds, decided
    on integers; more than FFZ_MAX_PAIRS pairs, (max_m + 1)**4, raise
    ValueError.  The failure of the opposite sign at the basic pair
    (1,0),(0,1) is a negative control.
    """
    max_m = 2 * d - 1 if max_m is None else max_m
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    if (max_m + 1) ** 4 > FFZ_MAX_PAIRS:
        raise ValueError(f"max_m = {max_m} sweeps more than FFZ_MAX_PAIRS = {FFZ_MAX_PAIRS} pairs")
    sigma = select_ffz_sign_convention() if sign_convention is None else sign_convention
    grid = np.indices((max_m + 1, max_m + 1)).reshape(2, -1).T
    exact, worst, worst_pair = True, 0.0, None
    for rows, holds, residual in _commutator_blocks(d, a, sigma, grid, grid):
        exact &= bool(holds.all())
        i, j = np.unravel_index(residual.argmax(), residual.shape)
        if residual[i, j] > worst:
            worst, worst_pair = float(residual[i, j]), (grid[rows][i].tolist(), grid[j].tolist())

    opposite = ffz_commutator_residual(d, a, (1, 0), (0, 1), sign_convention=-sigma)
    return VerificationReport(
        kind="ffz_sweep",
        passed=exact,
        tolerance=None,
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
