"""Canonical coefficients in Z[tau], tau = exp(i*pi/d): an oracle for the tests.

The library decides every identity with the norm certificate and keeps raw
coefficients.  This reducer gives a second, coefficient-wise decision where
a canonical form exists.  It folds tau**d = -1 (exponents d..2d-1 into
0..d-1 with a sign flip) and, for odd prime d, the root sum
1 + zeta + ... + zeta**(d-1) = 0 with zeta = tau**2.  In tau-folded
coordinates that sum reads sum_k (-1)**k tau**k = 0, and eliminating it zeroes
the coefficient that carries zeta**(d-1), at exponent d-2.  For d = 2 and odd
prime d the result is unique, so two sums are equal iff their canonical
coefficients are.
"""

import numpy as np

from mubkit.cyclo import is_prime


def canonicalize_coeffs(raw, d: int) -> np.ndarray:
    """Canonical form of coefficient arrays over tau exponents (last axis 2d)."""
    raw = np.asarray(raw, dtype=np.int64)
    if raw.shape[-1] != 2 * d:
        raise ValueError(f"coefficient axis must have length {2 * d}, got {raw.shape[-1]}")
    out = np.zeros_like(raw)
    out[..., :d] = raw[..., :d] - raw[..., d:]
    if d > 2 and is_prime(d):
        alt_signs = np.where(np.arange(d) % 2 == 0, 1, -1)
        out[..., :d] += out[..., d - 2 : d - 1] * alt_signs
    return out
