"""Sine-algebra closure of the shift/clock monomials.

The phase-corrected monomials T_m = q^(sigma m1 m2 / 2) V_a^m1 Z^m2 close
under commutation with a trigonometric structure constant:

    [T_m, T_n] = 2i sin(pi (m1 n2 - m2 n1) / d) T_{m+n}

but only for one of the two possible prefactor signs.  Every T_m is a
Weyl-Heisenberg monomial, so T_m T_n is a phase times T_{m+n}, and each
identity is decided exactly on those integer phases.  A built-in selector
decides both signs over a small case; the loser misses by an O(1) margin,
so the choice is unambiguous and is recorded in every report.  A pair that
holds has residual exactly 0; a failing pair reports its largest entry
modulus.
"""

import mubkit as mk

sigma = mk.select_ffz_sign_convention()
print(f"selected prefactor sign: {sigma:+d}\n")

good = mk.ffz_commutator_residual(3, 0, (1, 0), (0, 1), sign_convention=sigma)
bad = mk.ffz_commutator_residual(3, 0, (1, 0), (0, 1), sign_convention=-sigma)
print(f"basic pair m=(1,0), n=(0,1) at d=3:")
print(f"  sign {sigma:+d}: residual {good.max_residual:.1f}  (holds exactly)")
print(f"  sign {-sigma:+d}: residual {bad.max_residual:.2e}  (fails by an O(1) margin)\n")

for d in (2, 3, 5):
    for a in range(d):
        rep = mk.ffz_sweep(d, a)
        low, high = rep.details["m_range"]
        assert rep.passed
    print(f"d = {d}: identity holds exactly for all m, n with components {low}..{high}, "
          f"every a")

print("\nequal indices commute exactly, and the sine factor vanishes with them:")
rep = mk.ffz_commutator_residual(5, 2, (3, 1), (3, 1))
print(f"  m = n = (3,1) at d = 5: residual {rep.max_residual:.1f}")
