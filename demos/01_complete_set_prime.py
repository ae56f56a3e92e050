"""Build a complete set of mutually unbiased bases in a prime dimension.

A single d x d unitary generates everything: the phased cyclic shift V_a,
whose d eigenbases together with the computational basis are pairwise
mutually unbiased whenever d is prime.  Because every amplitude is a root
of unity over sqrt(d), the unbiasedness condition |<u|v>| = 1/sqrt(d) can
be certified exactly, by the integer norm of cyclotomic integers, not just
with floats.
"""

import numpy as np

import mubkit as mk

d = 5
print(f"dimension d = {d} (prime), expecting d + 1 = {d + 1} bases\n")

# The generator for a = 2: superdiagonal q^2, q^4, q^6, q^8, wrap entry 1.
v2 = mk.build_v(d, 2)
print("generator V_2 (rounded):")
print(np.round(v2.entries, 3), "\n")

mub_set = mk.build_complete_set(d)
print("bases:", [b.label for b in mub_set.bases])

# Every cross-basis overlap has modulus 1/sqrt(5) ~ 0.4472.
b0, b3 = mub_set.bases[1], mub_set.bases[4]
moduli = np.abs(mk.overlap_matrix(b0, b3))
print(f"\noverlap moduli between bases {b0.label} and {b3.label}:")
print(np.round(moduli, 6))

report = mk.verify_set(mub_set)
print(f"\nall {report.details['n_pairs']} pairs verified:",
      "exactly" if report.details["exact"] else "numerically")
print(f"max numeric residual: {report.max_residual:.2e}")
print("pass:", report.passed)
