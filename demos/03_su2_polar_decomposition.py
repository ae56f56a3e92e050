"""Polar decomposition of the angular-momentum ladder operators.

The raising operator factors as j_plus = h v_a: h is the nonnegative
diagonal sqrt((j+m)(j-m+1)) and v_a is the same phased cyclic shift that
generates the unbiased bases.  The commutation relations of su(2) come out
independent of the phase parameter a; a = 0 is the textbook phase choice
of atomic spectroscopy.  Every relation is decided exactly, on the integers
that describe each row of the operators, so a relation that holds reports
residual 0.
"""

import numpy as np

import mubkit as mk

two_j = 4  # j = 2, dimension 5
print(f"two_j = {two_j} (j = {two_j / 2}), dimension {two_j + 1}\n")

h = mk.build_h(two_j)
print("h = diag(sqrt((j+m)(j-m+1))), m = j..-j:")
print(np.round(np.diag(h.entries).real, 6), "\n")


def verdict(residual):
    return "exact" if residual == 0 else f"fails by {residual:.2e}"


for a in (0, 1, 3):
    rep = mk.check_su2(two_j, a)
    res = rep.details["residuals"]
    print(f"a = {a}:")
    print(f"  [j_z, j+] = j+            {verdict(res['jz_jp'])}")
    print(f"  [j+, j-] = 2 j_z          {verdict(res['jp_jm'])}")
    print(f"  j_z |j,m> = m |j,m>       {verdict(res['jz_action'])}")
    print(f"  Casimir = j(j+1)          {verdict(res['casimir'])}")

# The phases of j_plus depend on a, but the magnitudes never do.
mag0 = np.abs(mk.build_ladder(two_j, 0)[0].entries)
mag3 = np.abs(mk.build_ladder(two_j, 3)[0].entries)
print(f"\n| j_plus | entries differ between a = 0 and a = 3 by "
      f"{np.abs(mag0 - mag3).max():.2e}: only phases move")

action = mk.check_ladder_action(two_j, 3)
print("ladder action checks:", action.details["raising_checked_against"],
      "/", action.details["lowering_checked_against"], "->",
      "exact" if action.passed else "fail")
