"""Complete sets in prime-power dimension from tensor products.

A plain tensor product of shift generators has a degenerate spectrum, so
its "eigenbasis" is not well defined.  The construction below labels every
tensor operator by exponent vectors (x, z) over F_p, groups the labels into
p^e + 1 maximal pairwise-commuting classes (the Desarguesian spread over
F_{p^e}: the all-clock class plus one graph {(x, S_g x)} per field element
g), and takes each class's joint eigenbasis, a set of stabilizer states
with quadratic-form phases.  The unbiasedness verifier is the arbiter of
correctness.
"""

import numpy as np

import mubkit as mk

p, e = 2, 2
d = p**e
print(f"p = {p}, e = {e}: dimension {d}\n")

# The degeneracy that forces the class construction:
double_flip = mk.build_w(p, e, [(1, 1), (0, 0)], (0, 0))
report = mk.degeneracy_report(double_flip)
print("spectrum of the double flip V (x) V:",
      [f"{v:.0f} (x{m})" for v, m in zip(report.eigenvalues, report.multiplicities)])
print("degenerate:", report.degenerate, "- a single operator cannot fix a basis\n")

# classes (p^e + 1, p^e - 1, 2, e): member m of class c holds rows x and z
classes = mk.partition_commuting_classes(p, e)
print(f"{len(classes)} commuting classes of {classes.shape[1]} labels:")
for cid, members in enumerate(classes):
    pretty = ["".join(f"V{x}Z{z}" for x, z in zip(*label)) for label in members.tolist()]
    tag = "" if members[:, 0].any() else "  <- diagonal (gives the computational basis)"
    print(f"  class {cid}: {pretty}{tag}")

mub_set = mk.build_composite_set(p, e)
rep = mk.verify_set(mub_set, tol=1e-9)
print(f"\n{len(mub_set.bases)} bases, all {rep.details['n_pairs']} pairs unbiased:",
      rep.passed, f"(max residual {rep.max_residual:.2e})")

moduli = np.abs(mk.overlap_matrix(mub_set.bases[1], mub_set.bases[2]))
print(f"\nsample cross-basis overlap moduli (target 1/sqrt({d}) = {1 / np.sqrt(d):.4f}):")
print(np.round(moduli, 4))

print(f"\nthe same works at d = 9: {len(mk.build_composite_set(3, 2).bases)} bases")
