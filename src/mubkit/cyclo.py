"""Exact arithmetic in the ring of integers of the 2d-th cyclotomic field.

Every amplitude produced by the generator matrices and their eigenvectors is
an integer power of tau = exp(i*pi/d), the primitive 2d-th root of unity
(tau**2 = q = exp(2i*pi/d); half-integer powers of q are therefore integer
powers of tau).  A sum of such amplitudes is an integer coefficient vector
indexed by tau**0 .. tau**(2d-1).

Identities are decided, for every d, by the Galois-conjugate norm
certificate.  The conjugations sigma_k: tau -> tau**k (k coprime to 2d) only
multiply exponents by k, and a nonzero y in Z[tau] has a nonzero integer
norm |N(y)| = prod_k |sigma_k(y)| >= 1.  Conjugates pair up with equal
moduli (k and 2d-k), so y = 0 exactly when every sigma_k(y) with k < d,
evaluated with float error below 1/4, has modulus below 1/2.

Coefficients are kept as they arise, cyclically over tau**0 .. tau**(2d-1):
the certificate needs no canonical form, so equal sums may carry different
coefficient vectors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Default tolerance for pass/fail numeric verification.
DEFAULT_TOL = 1e-10


def _frozen(array, dtype) -> np.ndarray:
    """A read-only view of array as a contiguous dtype array, copied only if it must be.

    The view is frozen, not the array, so a caller's own array stays writable.
    """
    view = np.ascontiguousarray(array, dtype=dtype).view()
    view.setflags(write=False)
    return view


def check_tolerance(tol: float) -> float:
    """tol, if it is a finite positive number; ValueError otherwise."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")
    return tol


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def _phase_table(modulus: int) -> np.ndarray:
    """Unit phases exp(2i*pi*k/modulus) for k = 0..modulus-1, read-only.

    Quarter-circle entries are exactly 1, i, -1, -i; all numeric phases in
    the package come from this table, so those values stay float-clean.
    """
    table = np.exp(2j * np.pi * np.arange(modulus) / modulus)
    cardinal = {0: 1, 1: 1j, 2: -1, 3: -1j}
    for k in range(modulus):
        quarters, rem = divmod(4 * k, modulus)
        if rem == 0:
            table[k] = cardinal[quarters]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def conjugate_phases(d: int) -> np.ndarray:
    """tau**(k*j) at row k, column j = 0..2d-1, for the conjugating exponents k.

    The rows run over k in 1..d-1 with gcd(k, 2d) = 1, one Galois conjugation
    sigma_k per complex-conjugate pair (only k = 1 for d = 2).  Indexing the
    columns by tau exponents applies every sigma_k at once; a final zero
    column makes exponent -1, the package's mark for an exact zero, give 0.
    Read-only.
    """
    ks = np.array([k for k in range(1, d) if math.gcd(k, 2 * d) == 1], dtype=np.int64)
    rows = _phase_table(2 * d)[np.outer(ks, np.arange(2 * d)) % (2 * d)]
    rows = np.concatenate([rows, np.zeros((len(ks), 1))], axis=1)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class PhaseExponent:
    """An integer residue k mod 2d standing for the phase tau**k.

    modulus is always 2d (even).  Addition and negation are the mod-2d
    group operations; conj negates the exponent.
    """

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0 or self.modulus % 2 != 0:
            raise ValueError(f"modulus must be a positive even integer, got {self.modulus}")
        object.__setattr__(self, "value", int(self.value) % self.modulus)

    def _check(self, other: "PhaseExponent") -> None:
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "PhaseExponent") -> "PhaseExponent":
        self._check(other)
        return PhaseExponent(self.value + other.value, self.modulus)

    def __sub__(self, other: "PhaseExponent") -> "PhaseExponent":
        self._check(other)
        return PhaseExponent(self.value - other.value, self.modulus)

    def __neg__(self) -> "PhaseExponent":
        return PhaseExponent(-self.value, self.modulus)

    def conj(self) -> "PhaseExponent":
        return -self

    def evaluate(self) -> complex:
        return complex(_phase_table(self.modulus)[self.value])


class CyclotomicSum:
    """An integer combination of powers of tau = exp(i*pi/dim).

    coeffs (length 2*dim, read-only) holds the coefficient of tau**k at
    index k; equality is decided by the norm certificate, not by comparing
    coefficients.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs, dim: int):
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        arr = np.array(coeffs, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != 2 * dim:
            raise ValueError(f"expected {2 * dim} coefficients for dim {dim}, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicSum is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "CyclotomicSum":
        return cls(np.zeros(2 * dim, dtype=np.int64), dim)

    @classmethod
    def integer(cls, n: int, dim: int) -> "CyclotomicSum":
        raw = np.zeros(2 * dim, dtype=np.int64)
        raw[0] = n
        return cls(raw, dim)

    @classmethod
    def one(cls, dim: int) -> "CyclotomicSum":
        return cls.integer(1, dim)

    @classmethod
    def phase(cls, exponent: int, dim: int) -> "CyclotomicSum":
        raw = np.zeros(2 * dim, dtype=np.int64)
        raw[exponent % (2 * dim)] = 1
        return cls(raw, dim)

    @classmethod
    def from_exponent_counts(cls, exponents, dim: int) -> "CyclotomicSum":
        """Sum of tau**e over a sequence of exponents (duplicates add up)."""
        exps = np.asarray(exponents, dtype=np.int64) % (2 * dim)
        return cls(np.bincount(exps, minlength=2 * dim), dim)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        self._check(other)
        return CyclotomicSum(self.coeffs + other.coeffs, self.dim)

    def __sub__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        self._check(other)
        return CyclotomicSum(self.coeffs - other.coeffs, self.dim)

    def __neg__(self) -> "CyclotomicSum":
        return CyclotomicSum(-self.coeffs, self.dim)

    def __mul__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        """Exponent-index cyclic convolution (tau**(2d) = 1)."""
        self._check(other)
        two_d = 2 * self.dim
        prod = np.convolve(self.coeffs, other.coeffs)
        prod[: two_d - 1] += prod[two_d:]
        return CyclotomicSum(prod[:two_d], self.dim)

    def conj(self) -> "CyclotomicSum":
        """Complex conjugation: negate every exponent mod 2d."""
        two_d = 2 * self.dim
        idx = (-np.arange(two_d)) % two_d
        return CyclotomicSum(self.coeffs[idx], self.dim)

    def abs_squared(self) -> "CyclotomicSum":
        return self * self.conj()

    # -- queries ------------------------------------------------------------

    def evaluate(self) -> complex:
        return complex(self.coeffs @ _phase_table(2 * self.dim))

    def is_zero(self) -> bool:
        """Exact zero test by the norm certificate (module docstring).

        Each conjugate sums 2d terms, so its float error stays below
        l1(coeffs) * 2d * 2**-52; a sum too large for that to be below 1/4
        raises ValueError instead of being guessed.  The bound reads the
        coefficients as stored, unreduced: a Gauss-sum |G|**2 has l1 = d**2
        and trace_inner_exact l1 <= d, so even at d = 128 their differences
        with an integer (l1 <= 2 d**2 = 2**15) stay far below 2**50 / (2d).
        """
        l1 = int(np.abs(self.coeffs).sum())
        if l1 * 2 * self.dim * 2.0**-52 >= 0.25:
            raise ValueError(
                f"coefficients too large (l1 norm {l1}) to decide exactly at dim {self.dim}"
            )
        return bool(np.abs(conjugate_phases(self.dim)[:, :-1] @ self.coeffs).max() < 0.5)

    def as_int(self) -> int | None:
        """The rational integer this sum equals, or None if it is not one."""
        nearest = round(self.evaluate().real)
        return nearest if self == nearest else None

    def _check(self, other: "CyclotomicSum") -> None:
        if not isinstance(other, CyclotomicSum) or other.dim != self.dim:
            raise ValueError("dimension mismatch between CyclotomicSum operands")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, np.integer)):
            other = CyclotomicSum.integer(int(other), self.dim)
        if not isinstance(other, CyclotomicSum) or other.dim != self.dim:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self) -> str:
        terms = [f"{c}*tau^{k}" for k, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"CyclotomicSum({body}; dim={self.dim})"
