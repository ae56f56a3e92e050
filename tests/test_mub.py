import cmath
import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import canonicalize_coeffs
from mubkit import composite as composite_module
from mubkit import cyclo, mub
from mubkit.composite import build_composite_set, commutation_soundness, partition_commuting_classes
from mubkit.cyclo import DEFAULT_TOL, CyclotomicSum, _phase_table, conjugate_phases
from mubkit.mub import (
    MubBasis,
    MubSet,
    MubVector,
    build_basis,
    build_complete_set,
    build_mub_vector,
    eigen_relation_numeric_residual,
    eigen_relation_residual,
    eigenvalue_exponent,
    gauss_sum_magnitude,
    gauss_sum_expected_sq,
    overlap_matrix,
    spherical_basis,
    verify_set,
    verify_unbiased,
)
from mubkit.su2 import check_ladder_action, check_su2
from mubkit.weyl import (OperatorMatrix, build_v, ffz_commutator_residual, ffz_sweep,
                         q_commutation_residual)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def vector_by_half_integer_sum(d, a, n):
    """Independent oracle: literal sum over m = j, j-1, ..., -j.

    Uses exact rational exponents of q = exp(2i*pi/d); the component on the
    m-th standard vector carries q**((j+m)(j-m+1)a/2 + (j+m)n).
    """
    j = Fraction(d - 1, 2)
    out = np.zeros(d, dtype=complex)
    m = j
    s = 0
    while m >= -j:
        exponent = Fraction(1, 2) * (j + m) * (j - m + 1) * a + (j + m) * n
        out[s] = cmath.exp(2j * cmath.pi * float(exponent) / d)
        m -= 1
        s += 1
    return out / np.sqrt(d)


class TestBuildMubVector:
    def test_d3_a0_n1(self):
        q = np.exp(2j * np.pi / 3)
        vec = build_mub_vector(3, 0, 1)
        assert np.allclose(vec.amps, np.array([q**2, q, 1]) / np.sqrt(3), atol=1e-14)

    def test_d3_a1_n0_eigen(self):
        q = np.exp(2j * np.pi / 3)
        vec = build_mub_vector(3, 1, 0)
        assert np.allclose(vec.amps, np.array([q, q, 1]) / np.sqrt(3), atol=1e-14)
        assert np.allclose(
            build_v(3, 1).entries @ vec.amps, q * vec.amps, atol=1e-14
        )

    def test_d2_a1_n0(self):
        vec = build_mub_vector(2, 1, 0)
        assert np.allclose(vec.amps, np.array([1j, 1]) / np.sqrt(2), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_half_integer_oracle(self, d):
        for a in range(d):
            for n in range(d):
                built = build_mub_vector(d, a, n)
                oracle = vector_by_half_integer_sum(d, a, n)
                assert np.abs(built.amps - oracle).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_exponents_match_half_integer_oracle_exactly(self, d):
        # the literal m-loop exponent (j+m)(j-m+1)a/2 + (j+m)n, doubled to a
        # tau power, must agree with the t-reindexed storage form exactly
        j2 = d - 1  # 2j
        for a in range(d):
            for n in range(d):
                built = build_mub_vector(d, a, n).exact_exponents
                for s in range(d):
                    m2 = j2 - 2 * s  # 2m
                    tau_exp = ((j2 + m2) // 2) * ((j2 - m2 + 2) // 2) * a + (j2 + m2) * n
                    assert built[s] == tau_exp % (2 * d)

    def test_unit_norm_by_construction(self):
        for d in (2, 5, 9):
            vec = build_mub_vector(d, 1 % d, 2 % d)
            assert np.linalg.norm(vec.amps) == pytest.approx(1, abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            build_mub_vector(3, 3, 0)
        with pytest.raises(ValueError):
            build_mub_vector(3, 0, -1)


class TestEigenRelation:
    @pytest.mark.parametrize("d", PRIMES)
    def test_exact_for_primes(self, d):
        for a in range(d):
            for n in range(d):
                assert eigen_relation_residual(d, a, n) == 0

    @pytest.mark.parametrize("d", [6, 9, 10])
    def test_holds_for_composite_d_too(self, d):
        for a in range(d):
            assert eigen_relation_residual(d, a, d // 2) == 0

    def test_numeric_shadow(self):
        assert eigen_relation_numeric_residual(7, 3, 4) < 1e-12

    @pytest.mark.parametrize("d", PRIMES)
    def test_spectrum_non_degenerate(self, d):
        for a in range(d):
            exps = [eigenvalue_exponent(d, a, n).value for n in range(d)]
            assert len(set(exps)) == d


class TestBuildBasis:
    def test_d2_a0_is_flip_eigenbasis(self):
        basis = build_basis(2, 0)
        got = basis.as_array()
        expected = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        assert np.abs(got - expected).max() < 1e-14

    def test_d3_a0_fourier_type(self):
        q = np.exp(2j * np.pi / 3)
        basis = build_basis(3, 0)
        for n in range(3):
            expected = np.array([q ** (2 * n), q**n, 1]) / np.sqrt(3)
            assert np.abs(basis.vectors[n].amps - expected).max() < 1e-13

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_gram_is_identity(self, d):
        for a in range(d):
            rep = verify_unbiased(build_basis(d, a), build_basis(d, a))
            assert rep.passed
            assert rep.details["exact"] is True

    @pytest.mark.parametrize("d", [3, 7, 13])
    def test_basis_change_matrix_unitary(self, d):
        for a in range(d):
            cols = build_basis(d, a).as_array().T
            assert np.abs(cols.conj().T @ cols - np.eye(d)).max() < 1e-12

    def test_parameters_must_be_integers(self):
        # a float a was once written as the label "1.0", which a round trip read back changed
        with pytest.raises(TypeError):
            build_basis(5, 1.0)
        with pytest.raises(TypeError):
            build_mub_vector(5, 1, 2.0)
        from mubkit.serialize import mubset_from_doc, mubset_to_doc
        built = MubSet(5, (spherical_basis(5), build_basis(5, np.int64(1))))
        assert type(built.labels[1]) is int
        assert mubset_from_doc(mubset_to_doc(built, exact=True)).labels == ("s", 1)
        vector = build_mub_vector(5, np.int64(1), np.int64(2))
        assert type(vector.a) is type(vector.n) is int and (vector.a, vector.n) == (1, 2)


class TestCompleteSet:
    def test_d2_three_bases_overlap(self):
        mub_set = build_complete_set(2)
        assert len(mub_set.bases) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                moduli = np.abs(overlap_matrix(mub_set.bases[i], mub_set.bases[j]))
                assert np.abs(moduli - 1 / np.sqrt(2)).max() < 1e-12

    def test_d3_all_pairs(self):
        mub_set = build_complete_set(3)
        assert len(mub_set.bases) == 4
        rep = verify_set(mub_set)
        assert rep.passed
        assert rep.details["n_pairs"] == 6

    def test_non_prime_refused(self):
        with pytest.raises(ValueError, match="not prime"):
            build_complete_set(4)

    def test_force_builds_anyway(self):
        mub_set = build_complete_set(6, force=True)
        assert len(mub_set.bases) == 7
        assert mub_set.forced

    def test_labels(self):
        mub_set = build_complete_set(5)
        assert [b.label for b in mub_set.bases] == ["s", 0, 1, 2, 3, 4]

    def test_duplicate_labels_rejected(self):
        basis = build_basis(3, 1)
        with pytest.raises(ValueError, match="unique"):
            MubSet(3, (basis, basis))


class TestVerifyUnbiased:
    def test_d2_cross_overlaps(self):
        b0, b1 = build_basis(2, 0), build_basis(2, 1)
        moduli = np.abs(overlap_matrix(b0, b1))
        assert np.allclose(moduli, 1 / np.sqrt(2), atol=1e-14)  # |1 +/- i| / 2
        rep = verify_unbiased(b0, b1)
        assert rep.passed and rep.details["exact"] is True

    def test_spherical_vs_eigenbasis_any_d(self):
        # every amplitude has modulus 1/sqrt(d), so this holds without primality
        for d in (2, 3, 4, 6, 9):
            rep = verify_unbiased(spherical_basis(d), build_basis(d, 1))
            assert rep.max_residual < 1e-12

    def test_forced_d6_has_failing_pair(self):
        mub_set = build_complete_set(6, force=True)
        rep = verify_set(mub_set)
        assert not rep.passed
        assert rep.details["note"] == (
            "forced non-prime family: its bases need not be mutually unbiased"
        )
        bad = rep.details["failing_pairs"]
        assert any(p["max_residual"] > 0.01 for p in bad)
        # but the computational basis stays unbiased to every eigenbasis
        assert not any(p["a"] == "s" or p["b"] == "s" for p in bad)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            verify_unbiased(build_basis(2, 0), build_basis(3, 0))

    def test_amps_with_exponents_refused(self):
        # an exact basis's amps follow from its exponents, so none can drift from them
        second = build_complete_set(5).bases[1]
        with pytest.raises(ValueError, match="exactly one of amps and exponents"):
            MubBasis.from_arrays(5, second.label, second.amps, second.exponents, second.scales)
        with pytest.raises(ValueError, match="exactly one of amps and exponents"):
            MubBasis.from_arrays(5, second.label)

    @pytest.mark.parametrize("shift", [10, -2])
    def test_exponents_outside_range_refused(self, shift):
        # exponent k + 2d is tau**k, but the stored amps would read another phase (10 wraps
        # to the zero column, -2 to tau**9), so every constructor refuses it
        b = build_basis(5, 2)
        exps = np.where(b.exponents == 0, shift, b.exponents)
        with pytest.raises(ValueError, match=r"-1\.\.9"):
            MubBasis.from_arrays(5, 2, exponents=exps)
        vectors = [MubVector(5, 2, n, amps, row) for n, (amps, row) in enumerate(zip(b.amps, exps))]
        with pytest.raises(ValueError, match=r"-1\.\.9"):
            MubBasis(5, 2, vectors)
        with pytest.raises(ValueError, match=r"-1\.\.9"):
            MubSet._of_stacks(5, ("s", 2), np.stack([spherical_basis(5).exponents, exps]),
                              np.array([[0] * 5, [1] * 5]))

    def test_one_label_pair_needs_the_identity(self):
        # each diagonal overlap z_nn is certified as z_nn**2 = d**(sa_n + sb_n) at every
        # conjugate, with its sign from conjugate 1: rescaled has overlaps sqrt(7) I with b,
        # and negated has z_33 = -7, which meets z_33**2 = 7**2
        b = build_basis(7, 1)
        rescaled = MubBasis.from_arrays(7, 1, exponents=b.exponents, scales=0)
        negated = b.exponents.copy()
        negated[3] = (negated[3] + 7) % 14
        negated = MubBasis.from_arrays(7, 1, exponents=negated)
        for pair, deviation in (((b, rescaled), np.sqrt(7) - 1), ((rescaled, b), np.sqrt(7) - 1),
                                ((b, negated), 2.0)):
            rep = verify_unbiased(*pair)
            assert not rep.passed and rep.details["exact"] is False
            assert rep.details["gram_pairs"] == 1 and rep.details["conjugates"] == 3
            assert rep.max_residual == pytest.approx(deviation, abs=1e-12)
        assert verify_unbiased(b, MubBasis.from_arrays(7, 1, exponents=b.exponents)).passed

    def test_max_residual_is_overlap_deviation(self):
        # a pair decided on integers reports the deviation of its exact overlaps, 0.0
        # here, of which its amps' float deviation is the rounding
        b0, b1 = build_basis(3, 0), build_basis(3, 1)
        rep = verify_unbiased(b0, b1)
        deviation = np.abs(np.abs(overlap_matrix(b0, b1)) - 1 / np.sqrt(3)).max()
        assert rep.max_residual == 0.0 and deviation < 1e-15
        # a pair with a float basis reports its float deviation
        assert verify_unbiased(stripped(b0), b1).max_residual == deviation
        assert "overlap_moduli" not in rep.details


def basis_from_exponents(d, label, exps, scale):
    """A basis whose vector n has amplitudes tau**exps[n] / d**(scale[n]/2), 0 at -1.

    scale is one value for every vector or a list of d values.
    """
    return MubBasis.from_arrays(d, label, exponents=exps, scales=scale)


def coefficient_oracle(a_basis, b_basis, same):
    """The overlap identity decided on canonical coefficients (unique for prime d)."""
    d = a_basis.dim
    sa, sb = a_basis.vectors[0].scale_sqrt_dim, b_basis.vectors[0].scale_sqrt_dim
    if not same and sa + sb < 1:
        return False
    for u in a_basis.vectors:
        for v in b_basis.vectors:
            both = (u.exact_exponents >= 0) & (v.exact_exponents >= 0)
            z = CyclotomicSum.from_exponent_counts(
                (v.exact_exponents - u.exact_exponents)[both], d
            )
            if same:
                value, target = z, d**sa if u.n == v.n else 0
            else:
                value, target = z.abs_squared(), d ** (sa + sb - 1)
            if not np.array_equal(canonicalize_coeffs(value.coeffs, d),
                                  CyclotomicSum.integer(target, d).coeffs):
                return False
    return True


@st.composite
def exponent_bases(draw, d, label):
    """A random exponent grid, or a built basis, as is or with one exponent changed."""
    mode = draw(st.sampled_from(["random", "built", "perturbed"]))
    if mode == "random":
        exps = draw(st.lists(st.integers(-1, 2 * d - 1), min_size=d * d, max_size=d * d))
        return basis_from_exponents(d, label, np.reshape(exps, (d, d)), draw(st.integers(0, 2)))
    a = draw(st.sampled_from(["s", *range(d)]))
    base = spherical_basis(d) if a == "s" else build_basis(d, a)
    exps = np.stack([v.exact_exponents for v in base.vectors])
    if mode == "perturbed":
        n, s = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        exps[n, s] = draw(st.integers(-1, 2 * d - 1))
    return basis_from_exponents(d, label, exps, base.vectors[0].scale_sqrt_dim)


class TestNormCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda d: st.tuples(exponent_bases(d, "a"), exponent_bases(d, "b"), st.booleans())
    ))
    def test_verdict_matches_coefficient_oracle(self, case):
        a_basis, b_basis, same = case
        if same:
            b_basis = a_basis
        rep = verify_unbiased(a_basis, b_basis)
        assert rep.details["exact"] is coefficient_oracle(a_basis, b_basis, same)

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 7])
    def test_relabelled_computational_basis_is_exactly_biased(self, d):
        original = spherical_basis(d)
        copy = MubBasis(d, "t", original.vectors)
        rep = verify_unbiased(original, copy)
        assert rep.details["exact"] is False
        assert not rep.passed

    def test_sub_unit_target_is_exactly_unmet(self):
        # |z|**2 = 1/d has no algebraic-integer solution, even where every z is 0
        empty = basis_from_exponents(3, "t", np.full((3, 3), -1), 0)
        assert verify_unbiased(spherical_basis(3), empty).details["exact"] is False

    @pytest.mark.parametrize("d", [4, 6, 8, 9, 10])
    def test_forced_sets_exact_verdicts_match_numeric(self, d):
        mub_set = build_complete_set(d, force=True)
        rep = verify_set(mub_set)
        assert rep.details["exact"] is True
        bases = mub_set.bases
        numeric = [
            (a.label, b.label)
            for i, a in enumerate(bases)
            for b in bases[i + 1 :]
            if np.abs(np.abs(overlap_matrix(a, b)) - 1 / np.sqrt(d)).max() >= 1e-10
        ]
        assert numeric
        assert [(p["a"], p["b"]) for p in rep.details["failing_pairs"]] == numeric

    def test_complete_set_exact_at_d23(self):
        rep = verify_set(build_complete_set(23))
        assert rep.passed and rep.details["exact"] is True


def stripped(basis):
    """The same basis with every vector's exact exponents removed."""
    return MubBasis(
        basis.dim,
        basis.label,
        tuple(dataclasses.replace(v, exact_exponents=None) for v in basis.vectors),
    )


def conjugate_grids(basis):
    """sigma_k of an exact basis's scaled amplitudes, (K, d, d) over the conjugating k, 0 at -1."""
    d = basis.dim
    ks = np.array([k for k in range(1, d) if math.gcd(k, 2 * d) == 1])
    exps = basis.exponents
    return np.where(exps < 0, 0, np.exp(1j * np.pi * ks[:, None, None] * exps / d))


def reference_pair(a, b, same, tol=DEFAULT_TOL, grids=None):
    """Whether bases a and b pass the per-pair rule, with the target of one basis if same.

    A pair of exact bases passes iff every Galois conjugate sigma_k of its
    scaled overlaps meets the target within 1/2; any other pair iff the
    float deviation is below tol.  grids caches each exact basis's
    conjugate_grids by id.
    """
    d = a.dim
    if not (a.exact and b.exact):
        overlaps = a.as_array().conj() @ b.as_array().T
        if same:
            return bool(np.abs(overlaps - np.eye(d)).max() < tol)
        return bool(np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max() < tol)
    grids = {} if grids is None else grids
    for basis in (a, b):
        if id(basis) not in grids:
            grids[id(basis)] = conjugate_grids(basis)
    grams = grids[id(a)].conj() @ grids[id(b)].transpose(0, 2, 1)
    sa, sb = a.scales, b.scales
    if same:
        residual = np.abs(grams - np.diag(float(d) ** sa))
    else:
        power = sa[:, None] + sb[None, :] - 1
        residual = np.where(power < 0, np.inf, np.abs(np.abs(grams) ** 2 - float(d) ** power))
    return bool(residual.max() < 0.5)


def reference_verdict(mub_set, tol=DEFAULT_TOL):
    """(passed, failing pairs, exact) from reference_pair, one pair at a time."""
    grids = {}
    failing = [
        (a.label, b.label)
        for i, a in enumerate(mub_set.bases)
        for b in mub_set.bases[i:]
        if not reference_pair(a, b, a is b, tol, grids)
    ]
    return not failing, failing, all(b.exact for b in mub_set.bases)


def reference_deviations(mub_set):
    """The float deviation of each pair i <= j of the set's amps, by their labels."""
    d, bases = mub_set.dim, mub_set.bases
    deviations = {}
    for i, a in enumerate(bases):
        for b in bases[i:]:
            overlaps = a.amps.conj() @ b.amps.T
            if a is b:
                deviation = np.abs(overlaps - np.eye(d)).max()
            else:
                deviation = np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max()
            deviations[a.label, b.label] = float(deviation)
    return deviations


def replaced(basis, **arrays):
    """The basis with some of its exponents and scales replaced (its amps, if it is not exact)."""
    form = {"exponents": basis.exponents} if basis.exact else {"amps": basis.amps}
    fields = {**form, "scales": basis.scales, **arrays}
    return MubBasis.from_arrays(basis.dim, basis.label, **fields)


@st.composite
def built_sets(draw):
    """A built prime set at d in {3, 5, 7}, its bases maybe reordered, with one
    change: a basis's rows permuted or its scales changed, its exponents
    stripped and its amps shifted by 1e-11 (below tol), or a basis dropped.
    Most draws stay closed under every sigma_g."""
    d = draw(st.sampled_from([3, 5, 7]))
    bases = list(build_complete_set(d).bases)
    if draw(st.booleans()):
        bases = draw(st.permutations(bases))
    i = draw(st.integers(0, d))
    change = draw(st.sampled_from(["none", "rows", "scales", "shift", "drop"]))
    if change == "rows":
        order = np.array(draw(st.permutations(range(d))))
        b = bases[i]
        bases[i] = replaced(b, exponents=b.exponents[order], scales=b.scales[order])
    elif change == "scales":
        scales = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
        bases[i] = replaced(bases[i], scales=scales)
    elif change == "shift":
        bases[i] = replaced(stripped(bases[i]), amps=bases[i].amps + 1e-11)
    elif change == "drop":
        del bases[i]
    return MubSet(d, tuple(bases))


@st.composite
def candidate_sets(draw):
    """1-5 bases at d <= 7: random, built or perturbed exponent grids, some with
    per-vector scales, some with their exponents stripped, and some stripped
    with their float amplitudes shifted by 1e-11, below tol."""
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 7]))
    bases = []
    for i in range(draw(st.integers(1, 5))):
        basis = draw(exponent_bases(d, f"b{i}"))
        if draw(st.booleans()):
            scales = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
            basis = basis_from_exponents(d, basis.label, basis.exponents, scales)
        change = draw(st.sampled_from(["none", "none", "strip", "shift"]))
        if change == "strip":
            basis = stripped(basis)
        elif change == "shift":
            basis = replaced(stripped(basis), amps=basis.amps + 1e-11)
        bases.append(basis)
    return MubSet(d, tuple(bases))


def block_bytes(d, width):
    """The GRAM_BLOCK_BYTES that gives verify_set blocks of width basis pairs.

    That holds for the float Gram; a certificate on all K conjugates gets
    blocks of width // K pairs (at least one).
    """
    return width * 48 * d * d


def planted_orbit_set():
    """A d = 5 set that sigma_3 maps onto itself, with pairs of one orbit on both
    sides of the certificate's bound at conjugate 1.

    Basis "p" (scale 0) has every row tau**0 at slots 0 and 1, and basis
    "c<alpha>" (scale 1) rows tau**(2n) and tau**(2n - alpha) there; sigma_3
    sends c<alpha> to c<3 alpha>.  With target 1, |1 + tau**-alpha|**2 - 1 =
    1 + 2 cos(pi alpha / 5) is 0.38 for alpha = 3, 7 and 2.62 for alpha = 1, 9,
    so (p, c3) and (p, c7) pass conjugate 1 and fail conjugate 3.  No basis
    is monomial, flat or quadratic, so every pair takes the certificate.
    """
    d = 5
    exps = np.full((d, d), -1)
    exps[:, :2] = 0
    bases = [MubBasis.from_arrays(d, "p", exponents=exps, scales=0)]
    for alpha in (1, 3, 9, 7):
        exps = np.full((d, d), -1)
        exps[:, 0] = 2 * np.arange(d)
        exps[:, 1] = (2 * np.arange(d) - alpha) % (2 * d)
        bases.append(MubBasis.from_arrays(d, f"c{alpha}", exponents=exps, scales=1))
    return MubSet(d, tuple(bases))


def record_gram_pairs(patch, sent):
    """Patch the float and certificate kernels to append each pair they evaluate to sent."""
    for name in ("_deviations", "_certificate_residuals"):
        def recording(*args, kernel=getattr(mub, name)):
            sent.extend(zip(args[-2].tolist(), args[-1].tolist()))
            return kernel(*args)

        patch.setattr(mub, name, recording)


def check_residuals(rep, mub_set):
    """A verify_set report's residuals against the float deviations of the set's amps.

    A pair decided on integers reports the deviation of its exact overlaps,
    which the float deviation of its amps equals up to rounding; any other
    pair reports its float deviation.  So every failing pair and the worst
    pair match the float reference within 1e-12, and a set that passes with
    every pair decided on integers reports exactly 0.0.
    """
    deviations = reference_deviations(mub_set)
    for p in rep.details["failing_pairs"]:
        assert abs(p["max_residual"] - deviations[p["a"], p["b"]]) < 1e-12
    assert abs(rep.max_residual - max(deviations.values())) < 1e-12
    if rep.passed and rep.details["gram_pairs"] == 0:
        assert rep.max_residual == 0.0


def verdict(rep):
    """(passed, failing pairs, exact) of a verify_set report."""
    failing = [(p["a"], p["b"]) for p in rep.details["failing_pairs"]]
    return rep.passed, failing, rep.details["exact"]


def counts(rep):
    """(conjugates, gram_pairs, integer_pairs) of a report."""
    return tuple(rep.details[k] for k in ("conjugates", "gram_pairs", "integer_pairs"))


def perturbed(basis, n=0, s=1):
    """The exact basis with the exponent of row n at slot s moved by one."""
    exps = basis.exponents.copy()
    exps[n, s] = (exps[n, s] + 1) % (2 * basis.dim)
    return replaced(basis, exponents=exps)


class TestBlockedKernel:
    """verify_set against the per-pair reference, at the default block size and
    with one or two basis pairs per block, so that block boundaries are crossed."""

    @staticmethod
    def check_against_reference(width, mub_set):
        sent = []
        with pytest.MonkeyPatch.context() as patch:
            if width is not None:
                patch.setattr(mub, "GRAM_BLOCK_BYTES", block_bytes(mub_set.dim, width))
            record_gram_pairs(patch, sent)
            rep = verify_set(mub_set)
        assert verdict(rep) == reference_verdict(mub_set)
        check_residuals(rep, mub_set)
        # every pair a kernel evaluated is counted, and every other pair was decided on integers
        n = len(mub_set.bases)
        assert rep.details["gram_pairs"] == len(sent)
        assert rep.details["integer_pairs"] + len(sent) == n * (n + 1) // 2

    @settings(max_examples=150, deadline=None)
    @given(candidate_sets())
    @pytest.mark.parametrize("width", [None, 1, 2])
    def test_matches_per_pair_reference(self, width, mub_set):
        self.check_against_reference(width, mub_set)

    @settings(max_examples=150, deadline=None)
    @given(built_sets())
    @pytest.mark.parametrize("width", [None, 1, 2])
    def test_built_sets_match_per_pair_reference(self, width, mub_set):
        self.check_against_reference(width, mub_set)

    @pytest.mark.parametrize("width", [None, 1, 2])
    @pytest.mark.parametrize(
        "build",
        [
            *(lambda d=d: build_complete_set(d, force=True) for d in (4, 6, 8, 9, 10, 12)),
            *(lambda p=p, e=e: build_composite_set(p, e) for p, e in ((2, 2), (2, 3), (3, 2))),
            planted_orbit_set,
        ],
        ids=["forced4", "forced6", "forced8", "forced9", "forced10", "forced12",
             "composite4", "composite8", "composite9", "planted5"],
    )
    def test_forced_and_composite_sets(self, build, width):
        self.check_against_reference(width, build())


class TestPairTable:
    """verify_set reads its pairs i <= j from one cached, read-only table per basis count."""

    def test_cached_and_read_only(self):
        i, j, same = mub._pair_table(4)
        assert mub._pair_table(4)[0] is i and mub._pair_table(4)[2] is same
        assert [i.tolist(), j.tolist()] == [index.tolist() for index in np.triu_indices(4)]
        assert same.tolist() == (i == j).tolist()
        for index in (i, j, same):
            assert not index.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 1

    def test_reports_do_not_depend_on_earlier_calls(self):
        bases = build_complete_set(5).bases
        sets = [build_complete_set(5), MubSet(5, bases[:4]), build_complete_set(6, force=True),
                build_composite_set(2, 2), MubSet(5, (*bases[1:3], stripped(bases[3]))),
                build_complete_set(7)]
        mub._pair_table.cache_clear()
        first = [verify_set(s) for s in sets]
        for s in sets[::-1]:
            assert verify_unbiased(bases[1], bases[2]).passed
            assert verify_unbiased(bases[0], bases[0]).passed
            assert verify_unbiased(bases[1], bases[1]).details["integer_pairs"] == 1
            verify_set(s)
        assert [verify_set(s) for s in sets] == first
        assert [verdict(rep) for rep in first] == [reference_verdict(s) for s in sets]


class TestGaloisOrbit:
    """A pair that takes the certificate passes iff every Galois conjugate of its scaled
    overlaps meets its target, so all K conjugates are evaluated; a pair decided on
    integers evaluates none."""

    @pytest.mark.parametrize(
        "change, gram_pairs",
        [
            # a basis of scale 2 is neither monomial nor flat: its 6 pairs take the certificate
            (lambda bases: {2: replaced(bases[2], scales=2)}, 6),
            # eigenbases 1 and 2 swap their first rows: neither is quadratic any more, and
            # only their pairs with the computational basis stay on integers
            (lambda bases: {
                i: replaced(
                    bases[i],
                    exponents=np.concatenate([bases[j].exponents[:1], bases[i].exponents[1:]]),
                )
                for i, j in ((2, 3), (3, 2))
            }, 9),
        ],
        ids=["scales", "row_swap"],
    )
    def test_changed_bases_open_the_set(self, change, gram_pairs):
        bases = list(build_complete_set(5).bases)
        for i, basis in change(bases).items():
            bases[i] = basis
        mub_set = MubSet(5, tuple(bases))
        rep = verify_set(mub_set)
        assert counts(rep) == (2, gram_pairs, 21 - gram_pairs)
        assert verdict(rep) == reference_verdict(mub_set)

    def test_failures_propagate_along_orbits(self):
        # (p, c3) and (p, c7) meet their target at conjugate 1 and miss it at conjugate 3
        mub_set = planted_orbit_set()
        i, j = np.triu_indices(5, 1)
        one, _ = mub._certificate_residuals(
            mub_set.exponents, mub_set.scales, i == j, conjugate_phases(5)[:1], i, j
        )
        # the pairs (p, c1), (p, c3), (p, c9), (p, c7)
        assert one[:4].round(3).tolist() == [2.618, 0.382, 2.618, 0.382]
        rep = verify_set(mub_set)
        assert counts(rep) == (2, 15, 0)
        failing = [(p["a"], p["b"]) for p in rep.details["failing_pairs"]]
        assert ("p", "c3") in failing and ("p", "c7") in failing
        assert (rep.passed, failing) == reference_verdict(mub_set)[:2]

    def test_exact_pairs_skip_the_float_gram(self, monkeypatch):
        sent = []
        deviations = mub._deviations

        def recording(amps, same, i, j):
            sent.extend(zip(i.tolist(), j.tolist()))
            return deviations(amps, same, i, j)

        monkeypatch.setattr(mub, "_deviations", recording)
        for d in (5, 13, 23):
            assert verify_set(build_complete_set(d)).passed
        assert verify_unbiased(*build_complete_set(7).bases[:2]).passed
        assert sent == []
        bases = list(build_complete_set(5).bases)
        bases[2] = stripped(bases[2])
        assert verify_set(MubSet(5, tuple(bases))).passed
        # the pairs of the stripped basis, and no others
        assert sorted(sent) == [(0, 2), (1, 2), (2, 2), (2, 3), (2, 4), (2, 5)]

    @pytest.mark.parametrize(
        "build",
        [lambda: build_complete_set(13), lambda: build_complete_set(12, force=True),
         planted_orbit_set],
        ids=["prime13", "forced12", "planted5"],
    )
    def test_exact_deviations_are_the_float_deviations(self, build):
        # an exact pair's deviation, read from the certificate Gram's
        # conjugate 1, is the deviation of its amps' float Gram up to rounding
        mub_set = build()
        i, j = np.triu_indices(len(mub_set.bases))
        _, exact = mub._certificate_residuals(
            mub_set.exponents, mub_set.scales, i == j, conjugate_phases(mub_set.dim), i, j
        )
        floats = mub._deviations(mub_set.amps, i == j, i, j)
        assert np.abs(exact - floats).max() < 1e-15

    def test_non_exact_pairs_keep_the_float_verdict(self):
        bases = list(build_complete_set(7).bases)
        bases[3] = stripped(bases[3])
        rep = verify_set(MubSet(7, tuple(bases)))
        assert rep.passed and rep.details["exact"] is False
        # the 8 pairs of the stripped basis are float Grams, the others integer verdicts
        assert counts(rep) == (0, 8, 28)
        none = verify_set(MubSet(7, tuple(stripped(b) for b in bases)))
        assert none.details["conjugates"] is None

    def test_verify_unbiased_reports_conjugates(self):
        s, fourier, one, two = build_complete_set(5).bases[:4]
        assert verify_unbiased(s, fourier).details["conjugates"] == 0
        assert verify_unbiased(one, two).details["conjugates"] == 0
        assert verify_unbiased(one, perturbed(two)).details["conjugates"] == 2
        assert verify_unbiased(one, stripped(two)).details["conjugates"] is None


@st.composite
def shift_symmetric_sets(draw, max_dim=31):
    """(set, change): a built prime set, a forced set whose failing pairs depend on a - b,
    or a composite set, at d <= max_dim, with one change: its bases shuffled, a basis
    dropped, one row exponent perturbed, a basis duplicated under a new label, or one
    scale given to a basis."""
    source = draw(st.sampled_from(["prime", "forced", "composite"]))
    if source == "prime":
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        mub_set = build_complete_set(draw(st.sampled_from([d for d in primes if d <= max_dim])))
    elif source == "forced":
        dims = [d for d in (4, 6, 8, 9, 12) if d <= max_dim]
        mub_set = build_complete_set(draw(st.sampled_from(dims)), force=True)
    else:
        powers = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3)]
        p, e = draw(st.sampled_from([(p, e) for p, e in powers if p**e <= max_dim]))
        a_params = draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e))
        mub_set = build_composite_set(p, e, a_params)
    d, bases = mub_set.dim, list(mub_set.bases)
    i = draw(st.integers(0, len(bases) - 1))
    change = draw(st.sampled_from(["none", "shuffle", "drop", "perturb", "duplicate", "scale"]))
    if change == "shuffle":
        bases = draw(st.permutations(bases))
    elif change == "drop":
        del bases[i]
    elif change == "perturb":
        exps = bases[i].exponents.copy()
        n, s = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        exps[n, s] = draw(st.integers(-1, 2 * d - 1))
        bases[i] = replaced(bases[i], exponents=exps)
    elif change == "duplicate":
        copy = MubBasis.from_arrays(d, "copy", exponents=bases[i].exponents, scales=bases[i].scales)
        bases.append(copy)
    elif change == "scale":
        bases[i] = replaced(bases[i], scales=draw(st.integers(0, 2)))
    return MubSet(d, tuple(bases)), change


class TestShiftOrbit:
    """Built prime, forced and composite sets, whose flat bases form one orbit under
    diagonal shifts, as built and altered: verify_set gives the per-pair reference
    verdicts and decides every pair of their quadratic bases on integers."""

    @settings(max_examples=100, deadline=None)
    @given(shift_symmetric_sets())
    def test_matches_per_pair_reference(self, case):
        mub_set, change = case
        rep = verify_set(mub_set)
        assert verdict(rep) == reference_verdict(mub_set)
        check_residuals(rep, mub_set)
        # every basis is still monomial or quadratic; only a copy of the computational
        # basis makes a pair of two monomial bases, which takes the certificate
        copied_monomial = change == "duplicate" and not mub_set.bases[-1].scales.any()
        if change in ("none", "shuffle", "drop", "duplicate"):
            assert rep.details["gram_pairs"] == copied_monomial

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 31, 61])
    def test_prime_sets_evaluate_no_gram(self, d):
        # every pair is decided on integers, in any basis order
        bases = build_complete_set(d).bases
        for mub_set in (build_complete_set(d), MubSet(d, bases[::-1])):
            rep = verify_set(mub_set)
            assert rep.passed and rep.max_residual == 0.0
            assert counts(rep) == (0, 0, (d + 1) * (d + 2) // 2)

    @pytest.mark.parametrize("p, e, a_params", [(2, 3, (1, 0, 1)), (3, 2, (0, 0)), (3, 2, (0, 1)),
                                                (7, 2, (1, 3))])
    def test_exact_composite_sets_evaluate_no_gram(self, p, e, a_params):
        # (7, 2) with a = (1, 3) is not Galois-closed, which the integer rule does not need
        d = p**e
        rep = verify_set(build_composite_set(p, e, a_params))
        assert rep.passed and rep.details["exact"] is True and rep.max_residual == 0.0
        assert counts(rep) == (0, 0, (d + 1) * (d + 2) // 2)

    def test_float_bases_evaluate_every_pair(self):
        bases = build_complete_set(7).bases
        # dropping eigenbasis 1 leaves no shift that maps the set onto itself, and the
        # set is still decided on integers
        dropped = MubSet(7, tuple(b for b in bases if b.label != 1))
        assert counts(verify_set(dropped)) == (0, 0, 7 * 8 // 2)
        # a float-only basis is checked on its own Gram, one per pair
        floats = MubSet(7, tuple(stripped(b) for b in bases))
        assert verify_set(floats).details["gram_pairs"] == 8 * 9 // 2
        one, two = bases[1:3]
        assert verify_unbiased(one, stripped(two)).details["gram_pairs"] == 1
        assert verify_unbiased(one, one).details["gram_pairs"] == 0

    def test_scaled_computational_basis_fails_against_every_eigenbasis(self):
        # a computational basis of scale 1 is neither monomial nor flat, so its 6
        # pairs take the certificate
        bases = list(build_complete_set(5).bases)
        bases[0] = replaced(bases[0], scales=1)
        rep = verify_set(MubSet(5, tuple(bases[::-1])))
        assert counts(rep) == (2, 6, 15)
        failing = [(p["a"], p["b"]) for p in rep.details["failing_pairs"]]
        assert failing == [(a, "s") for a in (4, 3, 2, 1, 0)] + [("s", "s")]
        assert failing == reference_verdict(MubSet(5, tuple(bases[::-1])))[1]

    @pytest.mark.parametrize("d", [4, 6, 8, 9, 12])
    def test_forced_failures_depend_on_the_difference(self, d):
        # eigenbases a and b are unbiased iff gcd(a - b, d) == 1 (checked against the reference)
        mub_set = build_complete_set(d, force=True)
        rep = verify_set(mub_set)
        assert counts(rep) == (0, 0, (d + 1) * (d + 2) // 2)
        failing = [(p["a"], p["b"]) for p in rep.details["failing_pairs"]]
        biased = [(a, b) for a in range(d) for b in range(a + 1, d) if math.gcd(b - a, d) > 1]
        assert failing == biased
        assert failing == reference_verdict(mub_set)[1]
        # each reports the deviation of its exact overlaps, r = gcd(b - a, d) being its radical
        for p in rep.details["failing_pairs"]:
            r = math.gcd(p["b"] - p["a"], d)
            assert p["max_residual"] == max(1, math.sqrt(r) - 1) / math.sqrt(d)
        check_residuals(rep, mub_set)


class TestRouting:
    """verify_set's three routes: integer rules for monomial and quadratic bases, the
    certificate at every conjugate for any other exact pair, and float Grams for the
    pairs with a float-only basis."""

    @pytest.mark.parametrize("d", [5, 7, 11])
    def test_default_route_counts(self, d):
        # every pair of a built set is decided on integers; a perturbed eigenbasis sends
        # its d pairs with flat bases to the certificate (its pair with the computational
        # basis stays on integers), and a stripped one its d + 1 pairs to float Grams
        bases = list(build_complete_set(d).bases)
        total, k = (d + 1) * (d + 2) // 2, len(conjugate_phases(d))
        assert counts(verify_set(MubSet(d, tuple(bases)))) == (0, 0, total)
        bases[2] = perturbed(bases[2])
        rep = verify_set(MubSet(d, tuple(bases)))
        assert counts(rep) == (k, d, total - d)
        bases[3] = stripped(bases[3])
        mixed = MubSet(d, tuple(bases))
        rep = verify_set(mixed)
        assert counts(rep) == (k, 2 * d, total - 2 * d)
        assert verdict(rep) == reference_verdict(mixed)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_complete_set(5), lambda: build_complete_set(7),
         lambda: build_complete_set(9, force=True), lambda: build_composite_set(3, 2, (0, 1)),
         planted_orbit_set, lambda: MubSet(5, build_complete_set(5).bases[1:3])],
        ids=["prime5", "prime7", "forced9", "composite9", "planted5", "two5"],
    )
    def test_direct_route_searches_nothing(self, build):
        # each pair is decided on its own, with no symmetry of the set: built sets on
        # integers, the planted set by the certificate at every conjugate
        mub_set = build()
        rep = verify_set(mub_set)
        assert verdict(rep) == reference_verdict(mub_set)
        planted = mub_set.bases[0].label == "p"
        assert rep.details["conjugates"] == (len(conjugate_phases(mub_set.dim)) if planted else 0)


def quadratic_rows(draw, d, values, distinct):
    """exps (d, d) of the rows values(l_n) + k_n mod 2d for d drawn l_n and phases k_n.

    values maps an index l in 0..d-1 to a row of exponents; the l_n are a
    permutation of 0..d-1, or, if not distinct, one of them repeated.
    """
    order = draw(st.permutations(range(d)))
    if not distinct:
        order[1] = order[0]
    phases = draw(st.lists(st.integers(0, 2 * d - 1), min_size=d, max_size=d))
    return np.array([values(l) for l in order]) + np.array(phases)[:, None]


@st.composite
def cyclic_bases(draw, d, label):
    """(basis, valid): rows c s**2 + l_n s + k_n mod 2d in random order with random phases.

    Valid bases have c d + l_n even and distinct l_n; the others have c d + l_n odd, a
    repeated l_n, or one exponent moved.
    """
    c = draw(st.integers(0, 2 * d - 1))
    flaw = draw(st.sampled_from(["none", "none", "none", "parity", "repeat", "moved"]))
    parity = (c * d + (flaw == "parity")) % 2
    s = np.arange(d)
    exps = quadratic_rows(draw, d, lambda l: c * s * s + (parity + 2 * l) * s, flaw != "repeat")
    if flaw == "moved":
        exps[draw(st.integers(0, d - 1)), draw(st.integers(1, d - 1))] += draw(st.integers(1, 2 * d - 1))
    return MubBasis.from_arrays(d, label, exponents=exps % (2 * d)), flaw == "none"


@st.composite
def field_bases(draw, p, e, label):
    """(basis, valid): rows u (Q(j) + lin l_n.j) + k_n mod 2d over the points j of F_p^e.

    Q(j) = j.Aj / 2 mod p for a random symmetric A over F_p (singular ones
    included), or j.Aj mod 4 with a diagonal in Z_4 for p = 2, where u =
    d/2 and lin = 2; u = 2d/p and lin = 1 for odd p.  The l_n run over
    F_p^e in random order with random phases; an invalid basis repeats one
    or has one exponent moved.  e = 1 is the prime field, d = p.
    """
    d = p**e
    mod = 4 if p == 2 else p
    u, lin = 2 * d // mod, mod // p
    upper = np.triu(np.reshape(draw(st.lists(st.integers(0, p - 1), min_size=e * e,
                                              max_size=e * e)), (e, e)), 1)
    diagonal = draw(st.lists(st.integers(0, mod - 1), min_size=e, max_size=e))
    form = upper + upper.T + np.diag(diagonal)
    points = np.array(list(itertools.product(range(p), repeat=e)))
    quad = (points @ form * points).sum(axis=1)
    if p != 2:
        quad = quad * (p + 1) // 2
    flaw = draw(st.sampled_from(["none", "none", "repeat", "moved"]))
    exps = quadratic_rows(draw, d, lambda l: u * (quad + lin * points @ points[l]), flaw != "repeat")
    if flaw == "moved":
        exps[draw(st.integers(0, d - 1)), draw(st.integers(1, d - 1))] += draw(st.integers(1, 2 * d - 1))
    return MubBasis.from_arrays(d, label, exponents=exps % (2 * d)), flaw == "none"


@st.composite
def form_bases(draw):
    """(b, e, A, exps): a quadratic basis over Z_b**e, rows u (j.Aj + l_n.j) + k_n mod 2d.

    d = b**e and u = d/b; b = d (e = 1) at a d with no field kind, or b = p
    at d = p**e with e >= 2.  A is symmetric over Z_2b, the l_n are b
    diag(A) mod 2 plus twice the points of Z_b**e in random order, and the
    phases k_n are random.
    """
    b, e = draw(st.sampled_from([(d, 1) for d in (2, 3, 5, 6, 7, 10, 11, 12, 13)]
                                + [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]))
    d, u = b**e, b ** (e - 1)
    entries = draw(st.lists(st.integers(0, 2 * b - 1), min_size=e * e, max_size=e * e))
    upper = np.triu(np.reshape(entries, (e, e)))
    form = upper + np.triu(upper, 1).T
    points = np.array(list(itertools.product(range(b), repeat=e)))
    linear = b * np.diag(form) % 2 + 2 * points[draw(st.permutations(range(d)))]
    quad = (points @ form * points).sum(axis=1)
    phases = draw(st.lists(st.integers(0, 2 * d - 1), min_size=d, max_size=d))
    return b, e, form, (u * (quad + linear @ points.T) + np.array(phases)[:, None]) % (2 * d)


@st.composite
def quadratic_pairs(draw):
    """Two bases of one quadratic kind, or one of each kind at a prime power d.

    Field bases over F_p (e = 1) are of the cyclic kind.
    """
    powers = ((2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2))
    kind, d, p, e = draw(st.sampled_from([("cyclic", d, d, 1) for d in range(2, 13)]
                                         + [("field", p**e, p, e) for p, e in powers]))

    def basis(label, kind):
        return draw(cyclic_bases(d, label) if kind == "cyclic" else field_bases(p, e, label))

    other = draw(st.sampled_from([kind, "cyclic"]))
    return basis("a", kind), basis("b", other), kind == other or e == 1


class TestQuadraticPairs:
    """The integer rule for pairs of quadratic bases agrees with the certificate."""

    @settings(max_examples=400, deadline=None)
    @given(quadratic_pairs())
    def test_matches_the_certificate(self, case):
        (a, a_valid), (b, b_valid), same_kind = case
        d = a.dim
        for x, y, same, valid in ((a, b, False, a_valid and b_valid and same_kind),
                                  (a, a, True, a_valid), (b, b, True, b_valid)):
            rep = verify_unbiased(x, y)
            assert rep.passed is reference_pair(x, y, same)
            overlaps = x.amps.conj() @ y.amps.T
            deviation = np.abs(overlaps - np.eye(d)) if same else abs(abs(overlaps) - d**-0.5)
            assert abs(rep.max_residual - deviation.max()) < 1e-12
            if valid:
                assert counts(rep) == (0, 0, 1)
                if rep.passed:
                    assert rep.max_residual == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11]).flatmap(lambda p: field_bases(p, 1, "a")))
    def test_prime_field_bases_are_cyclic(self, case):
        # the cyclic kind is the one form over Z_b**e at e = 1
        basis, valid = case
        code, _ = mub._basis_codes(basis.exponents[None], basis.scales[None])
        if valid:
            assert code[0] == 4
            assert counts(verify_unbiased(basis, basis)) == (0, 0, 1)

    @settings(max_examples=200, deadline=None)
    @given(form_bases())
    def test_keys_are_the_slots_of_the_form_images(self, case):
        b, e, form, exps = case
        code, keys = mub._basis_codes(exps[None], np.ones((1, b**e), np.int64))
        points = itertools.product(range(b), repeat=e)
        slots = [sum(int(v) * b ** (e - 1 - k) for k, v in enumerate(form @ h % b)) for h in points]
        assert code[0] == (4 if e == 1 else 5)
        assert keys[0].tolist() == slots

    @pytest.mark.parametrize("d", [4, 8, 9, 16, 25, 27])
    def test_dropped_duplicated_and_perturbed_bases(self, d):
        # a duplicated eigenbasis is biased against its original on integers; a
        # perturbed one takes the certificate for its d pairs with flat bases
        p = min(q for q in (2, 3, 5) if d % q == 0)
        e = round(math.log(d, p))
        for mub_set in (build_complete_set(d, force=True), build_composite_set(p, e)):
            bases = mub_set.bases
            copy = MubBasis.from_arrays(d, "copy", exponents=bases[3].exponents)
            for changed, grams in ((bases[:2] + bases[3:], 0), ((*bases, copy), 0),
                                   ((*bases[:3], perturbed(bases[3]), *bases[4:]), d)):
                changed = MubSet(d, tuple(changed))
                rep = verify_set(changed)
                assert verdict(rep) == reference_verdict(changed)
                assert rep.details["gram_pairs"] == grams
                check_residuals(rep, changed)


def is_monomial(basis):
    """Every row of scale 0 with exactly one exponent >= 0: a phased permutation matrix."""
    return not basis.scales.any() and ((basis.exponents >= 0).sum(axis=1) == 1).all()


@st.composite
def monomial_cases(draw):
    """A set of 1-4 exact bases at d in 2..8, a copy of its first basis under the same
    label, its rows maybe permuted, and whether each basis's own pair is decided on
    integers.  Each basis is monomial with permuted slots and random phases, monomial
    with a repeated slot, one slot per row at scale 1 or at per-row scales 0 and 1 (not
    monomial unless every scale is 0), or a built basis relabelled (monomial or cyclic)."""
    d = draw(st.integers(2, 8))
    bases, own_integers = [], []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["monomial", "repeated", "scaled", "mixed", "built"]))
        if kind == "built":
            a = draw(st.sampled_from(["s", *range(d)]))
            base = spherical_basis(d) if a == "s" else build_basis(d, a)
            exps, scales = base.exponents, base.scales
        else:
            slots = np.array(draw(st.permutations(range(d))))
            if kind == "repeated":
                n = draw(st.integers(0, d - 1))
                slots[(n + draw(st.integers(1, d - 1))) % d] = slots[n]
            exps = np.full((d, d), -1)
            exps[np.arange(d), slots] = draw(
                st.lists(st.integers(0, 2 * d - 1), min_size=d, max_size=d)
            )
            scales = {"scaled": 1, "mixed": draw(st.lists(st.integers(0, 1), min_size=d,
                                                           max_size=d))}.get(kind, 0)
        bases.append(MubBasis.from_arrays(d, f"b{i}", exponents=exps, scales=scales))
        own_integers.append(kind == "built" or is_monomial(bases[-1]))
    first = bases[0]
    order = np.array(draw(st.permutations(range(d)))) if draw(st.booleans()) else np.arange(d)
    copy = replaced(first, exponents=first.exponents[order], scales=first.scales[order])
    return MubSet(d, tuple(bases)), copy, own_integers


class TestMonomialPairs:
    """The own pair of a monomial basis is decided on integers, with the per-pair
    reference's verdict; every other exact pair, and a same-label pair of two
    objects, still takes the certificate."""

    @settings(max_examples=200, deadline=None)
    @given(monomial_cases())
    def test_matches_per_pair_reference(self, case):
        mub_set, copy, own_integers = case
        rep = verify_set(mub_set)
        assert verdict(rep) == reference_verdict(mub_set)
        check_residuals(rep, mub_set)
        for basis, own_integer in zip(mub_set.bases, own_integers):
            own = verify_unbiased(basis, basis).details
            assert own["exact"] is reference_pair(basis, basis, True)
            assert (own["integer_pairs"], own["gram_pairs"]) == (own_integer, not own_integer)
        first = mub_set.bases[0]
        pair = verify_unbiased(first, copy)
        assert pair.details["same_basis"] and pair.details["integer_pairs"] == 0
        assert pair.passed is pair.details["exact"] is reference_pair(first, copy, True)

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_repeated_slot_fails_on_integers(self, d, monkeypatch):
        def refuse(*args):
            raise AssertionError("a monomial basis's own pair needs no certificate")

        monkeypatch.setattr(mub, "_certificate_residuals", refuse)
        exps = np.full((d, d), -1)
        exps[:, 0] = 2 * np.arange(d) % (2 * d)
        rep = verify_set(MubSet(d, (basis_from_exponents(d, "x", exps, 0),)))
        assert not rep.passed and rep.details["integer_pairs"] == 1
        assert rep.details["conjugates"] == rep.details["gram_pairs"] == 0
        # two rows share slot 0: an off-diagonal overlap of modulus 1
        assert rep.max_residual == 1.0

    def test_monomial_own_pairs_past_the_first_basis(self):
        # the own pairs of a mixed set's monomial bases, at indices 2 and 3, are
        # decided on integers: "x" repeats slot 0 and fails, "s" passes.  So are the own
        # pair of eigenbasis 1 and its pairs with "x" and "s"; (x, s) takes the certificate
        d = 5
        exps = np.full((d, d), -1)
        exps[np.arange(d), [0, 1, 2, 3, 0]] = 2 * np.arange(d)
        repeated = MubBasis.from_arrays(d, "x", exponents=exps, scales=0)
        mub_set = MubSet(d, (build_basis(d, 1), stripped(build_basis(d, 2)), repeated,
                             spherical_basis(d)))
        rep = verify_set(mub_set)
        assert verdict(rep) == reference_verdict(mub_set)
        assert rep.details["integer_pairs"] == 5
        failing = {(p["a"], p["b"]): p["max_residual"] for p in rep.details["failing_pairs"]}
        assert failing["x", "x"] == 1.0 and ("s", "s") not in failing
        assert not verify_unbiased(repeated, repeated).passed

    def test_completeness_is_reported(self):
        rep = verify_set(MubSet(5, (spherical_basis(5),)))
        assert rep.passed and rep.details["complete"] is False
        assert verify_set(build_complete_set(5)).details["complete"] is True


@st.composite
def changed_stacks(draw):
    """The stacks of a built set (prime d <= 13, composite d <= 16) with one change: an
    exponent moved to another slot of its row or set to another value, a basis duplicated,
    or a basis dropped."""
    build = draw(st.sampled_from([
        *(functools.partial(build_complete_set, d) for d in (2, 3, 5, 7, 11, 13)),
        *(functools.partial(build_composite_set, *pe) for pe in ((2, 2), (2, 3), (3, 2), (2, 4))),
    ]))
    mub_set = build()
    exps, scales = np.array(mub_set.exponents), np.array(mub_set.scales)
    n, d = exps.shape[:2]
    k = draw(st.integers(0, n - 1))
    change = draw(st.sampled_from(["move", "set", "duplicate", "drop"]))
    row, slot, to = (draw(st.integers(0, d - 1)) for _ in range(3))
    if change == "move":
        # the computational basis gets two rows on one slot when slot == row
        exps[k, row, [slot, to]] = exps[k, row, [to, slot]]
    elif change == "set":
        exps[k, row, slot] = draw(st.integers(-1, 2 * d - 1).filter(
            lambda e: e != exps[k, row, slot]))
    elif change == "duplicate":
        at = draw(st.integers(0, n))
        exps = np.insert(exps, at, exps[k], axis=0)
        scales = np.insert(scales, at, scales[k], axis=0)
    else:
        exps, scales = np.delete(exps, k, axis=0), np.delete(scales, k, axis=0)
    return exps, scales


class TestRuleTable:
    """_RULES is pinned against the certificate: every pair the integer route decides
    gets the verdict of the norm certificate at every conjugate."""

    @settings(max_examples=60, deadline=None)
    @given(changed_stacks())
    def test_integer_verdicts_agree_with_the_certificate(self, stacks):
        exps, scales = stacks
        d = exps.shape[1]
        i, j, kind = mub._pair_table(len(exps))
        decided, passed, _ = mub._integer_verdicts(exps, scales, i, j, kind)
        residual, _ = mub._certificate_residuals(exps, scales, kind[decided] > 0,
                                                 conjugate_phases(d), i[decided], j[decided])
        np.testing.assert_array_equal(passed[decided], residual < 0.5)
        # two objects with one label are compared against the identity by the certificate
        one_label = np.full(len(i), 2)
        decided, _, _ = mub._integer_verdicts(exps, scales, i, j, one_label)
        assert not decided.any()
        a = MubBasis.from_arrays(d, "x", exponents=exps[0], scales=scales[0])
        b = MubBasis.from_arrays(d, "x", exponents=exps[0], scales=scales[0])
        rep = verify_unbiased(a, b)
        assert counts(rep) == (len(conjugate_phases(d)), 1, 0)
        residual, _ = mub._certificate_residuals(exps[:1], scales[:1], np.array([True]),
                                                 conjugate_phases(d), np.zeros(1, int),
                                                 np.zeros(1, int))
        assert rep.passed is bool(residual[0] < 0.5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "check, refusal",
    [
        (lambda tol: verify_set(build_complete_set(3), tol), ValueError),
        (lambda tol: verify_unbiased(build_basis(3, 0), build_basis(3, 1), tol), ValueError),
        # the checks decided on integers take no tolerance at all
        (lambda tol: build_composite_set(2, 2, tol=tol), TypeError),
        (lambda tol: ffz_sweep(3, 1, 2, tol=tol), TypeError),
        (lambda tol: check_su2(2, 0, tol=tol), TypeError),
        (lambda tol: check_ladder_action(2, 0, tol=tol), TypeError),
        (lambda tol: q_commutation_residual(3, 1, tol=tol), TypeError),
        (lambda tol: commutation_soundness(partition_commuting_classes(2, 1), 2, 1, (0,), tol=tol),
         TypeError),
    ],
    ids=[
        "verify_set", "verify_unbiased", "build_composite_set", "ffz_sweep", "check_su2",
        "check_ladder_action", "q_commutation_residual", "commutation_soundness",
    ],
)
def test_library_refuses_bad_tolerance(check, refusal, tol):
    with pytest.raises(refusal, match="tolerance must be a finite positive|keyword argument 'tol'"):
        check(tol)


def test_only_float_verdicts_record_a_tolerance():
    integer_reports = [
        ffz_sweep(3, 1, 2), ffz_commutator_residual(3, 1, (1, 0), (0, 1)),
        check_su2(2, 0), check_ladder_action(2, 0), q_commutation_residual(3, 1),
        commutation_soundness(partition_commuting_classes(2, 1), 2, 1, (0,)),
    ]
    assert all(rep.passed and rep.tolerance is None for rep in integer_reports)
    mub_set = build_complete_set(3)
    assert verify_set(mub_set, 1e-9).tolerance == 1e-9
    assert verify_unbiased(*mub_set.bases[:2], 1e-9).tolerance == 1e-9


class TestArrayStorage:
    def test_stripped_exponents_give_numeric_verdicts(self):
        # how a caller plants a set without exact exponents
        bases = tuple(stripped(b) for b in build_complete_set(7).bases)
        assert not any(b.exact for b in bases)
        assert all(b.exponents is None for b in bases)
        rep = verify_set(MubSet(7, bases))
        assert rep.passed
        assert rep.details["exact"] is False

    def test_vectors_are_read_only_row_views(self):
        basis = build_basis(5, 2)
        assert basis.as_array().shape == (5, 5)
        for n, vec in enumerate(basis.vectors):
            assert (vec.dim, vec.a, vec.n, vec.scale_sqrt_dim) == (5, 2, n, 1)
            assert np.shares_memory(vec.amps, basis.amps)
            assert np.array_equal(vec.exact_exponents, basis.exponents[n])
            assert not vec.amps.flags.writeable
        with pytest.raises(ValueError):
            basis.amps[0, 0] = 0

    def test_exact_amps_follow_from_exponents(self):
        exps = np.array([[0, 3, -1], [5, -1, 1], [2, 2, 4]])
        basis = MubBasis.from_arrays(3, "x", exponents=exps, scales=[0, 1, 2])
        expected = np.where(exps < 0, 0, _phase_table(6)[exps]) / np.array([[1], [3**0.5], [3]])
        assert np.abs(basis.amps - expected).max() < 1e-15
        assert (basis.amps[exps < 0] == 0).all()
        vectors = basis.vectors
        # MubBasis(dim, label, vectors) reads exact vectors by their exponents and scales
        rebuilt = MubBasis(3, "x", [dataclasses.replace(v, amps=np.zeros(3)) for v in vectors])
        assert np.array_equal(rebuilt.amps, basis.amps)

    def test_caller_arrays_stay_writable(self):
        amps = np.eye(3, dtype=complex)
        exps = np.eye(3, dtype=np.int64) - 1
        scales = np.zeros(3, dtype=np.int64)
        labels = np.zeros((2, 2, 1), dtype=np.int64)
        MubBasis.from_arrays(3, "x", amps, class_labels=labels)
        basis = MubBasis.from_arrays(3, "s", exponents=exps, scales=scales)
        MubVector(3, "s", 0, amps[0], exps[0], 0)
        OperatorMatrix(3, amps, exps)
        assert all(a.flags.writeable for a in (amps, exps, scales, labels))
        # the exact form is a copy, so changing the caller's arrays leaves the basis alone
        exps[0, 0], scales[0] = 1, 1
        assert basis.exponents[0, 0] == 0 and basis.scales[0] == 0 and basis.amps[0, 0] == 1

    def test_set_stacks_its_bases(self):
        mub_set = build_complete_set(5)
        assert mub_set.amps.shape == mub_set.exponents.shape == (6, 5, 5)
        assert mub_set.scales.tolist() == [[0] * 5] + [[1] * 5] * 5
        for basis, amps, exps in zip(mub_set.bases, mub_set.amps, mub_set.exponents):
            # the bases hold views of the stacked rows, not a second copy
            assert np.shares_memory(basis.amps, amps)
            assert np.shares_memory(basis.exponents, exps)
            assert np.shares_memory(basis.scales, mub_set.scales)

    @pytest.mark.parametrize("d", [2, 5, 6])
    def test_one_broadcast_build_matches_each_basis(self, d):
        mub_set = build_complete_set(d, force=True)
        bases = [spherical_basis(d), *(build_basis(d, a) for a in range(d))]
        for basis, alone in zip(mub_set.bases, bases, strict=True):
            assert basis.label == alone.label and basis.class_labels is None
            for name in ("amps", "exponents", "scales"):
                assert np.array_equal(getattr(basis, name), getattr(alone, name))
                assert not getattr(basis, name).flags.writeable
                assert np.shares_memory(getattr(basis, name), getattr(mub_set, name))
        with pytest.raises(ValueError, match=r"exponents \(m <= 2, 3, 3\), scales \(2, 3\)"):
            MubSet._of_stacks(3, ("s", 0), np.zeros((3, 3, 3), int), np.ones((2, 3), int))

    def test_stacked_assembly_keeps_the_set_checks(self):
        full = build_complete_set(5)
        exps, scales = np.array(full.exponents), np.array(full.scales)
        with pytest.raises(ValueError, match="labels must be unique"):
            MubSet._of_stacks(5, ("s", 0, 1, 1, 3, 4), exps, scales)
        with pytest.raises(ValueError, match="at least one basis"):
            MubSet._of_stacks(5, (), exps[:0], scales[:0])
        with pytest.raises(ValueError, match="amps if m < n"):
            MubSet._of_stacks(5, ("s", *range(5)), exps[:4], scales)
        # the first m = 4 bases exact, the last two float, from amps rows 4 and 5
        mixed = MubSet._of_stacks(5, ("s", *range(5)), np.array(exps[:4]), np.array(scales),
                                  amps=np.array(full.amps))
        assert mixed.exact_bases.tolist() == [True] * 4 + [False] * 2
        assert not mixed.exact_bases.flags.writeable
        assert [b.exact for b in mixed.bases] == mixed.exact_bases.tolist()
        for k, (basis, alone) in enumerate(zip(mixed.bases, full.bases, strict=True)):
            for name in ("amps", "scales", "exponents")[: 3 if k < 4 else 2]:
                view, stack = getattr(basis, name), getattr(mixed, name)
                assert np.array_equal(view, getattr(alone, name))
                assert np.shares_memory(view, stack[k])
                assert not view.flags.writeable and not stack.flags.writeable
        assert verify_set(mixed).passed

    def test_set_stacks_only_present_exponents(self):
        bases = list(build_complete_set(5).bases)
        bases[2] = stripped(bases[2])
        mub_set = MubSet(5, tuple(bases))
        assert mub_set.exact_bases.tolist() == [b.exact for b in mub_set.bases]
        assert mub_set.exact_bases.tolist() == [True, True, False, True, True, True]
        assert mub_set.exponents.shape == (5, 5, 5)
        exact = [b for b in mub_set.bases if b.exact]
        for basis, exps in zip(exact, mub_set.exponents):
            assert np.shares_memory(basis.exponents, exps)
        # a composite set is exact: every basis views its row of one stack
        composite = build_composite_set(2, 2)
        assert composite.exact and composite.exponents.shape == (5, 4, 4)
        for basis, exps in zip(composite.bases, composite.exponents):
            assert np.shares_memory(basis.exponents, exps)
        assert MubSet(7, tuple(stripped(b) for b in build_complete_set(7).bases)).exponents.shape == (
            0, 7, 7
        )

    def test_wrong_shape_refused(self):
        rows = build_basis(3, 1).vectors
        with pytest.raises(ValueError, match="3 vectors of length 3"):
            MubBasis(3, 1, rows[:2])
        with pytest.raises(ValueError, match=r"shape \(members, 2, e\)"):
            MubBasis(3, 1, rows, class_labels=[[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="dim 3, expected 5"):
            MubSet(5, (build_basis(3, 1),))


@pytest.fixture
def no_amps(monkeypatch):
    """Refuse every derivation of exact amps while the test runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("exact amps derived")

    monkeypatch.setattr(mub, "_amplitudes", refuse)
    return monkeypatch


def underived(*objects):
    """Whether none of the sets or bases has derived its amps or its bases yet."""
    return not any({"amps", "bases"} & vars(o).keys() for o in objects)


@st.composite
def exact_stacks(draw):
    """(d, exponents (n, d, d) in -1..2d-1, scales (n, d) of 0 and 1) for d = 2..31."""
    d, n = draw(st.integers(2, 31)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return d, rng.integers(-1, 2 * d, (n, d, d)), rng.integers(0, 2, (n, d))


class TestDerivedOnFirstRead:
    """An exact set or basis stores its exponents and scales; its amps and a set's bases are
    derived on first read, and building and deciding it reads neither."""

    @pytest.mark.parametrize("d", [2, 5, 7, 23])
    def test_build_and_verify_derive_no_amps(self, d, no_amps):
        mub_set = build_complete_set(d)
        assert verify_set(mub_set).passed
        assert underived(mub_set)

    @pytest.mark.parametrize("p,e,a_params", [(2, 2, (0, 1)), (3, 2, (1, 2)), (2, 4, None)])
    def test_composite_build_derives_no_amps(self, p, e, a_params, no_amps):
        mub_set = build_composite_set(p, e, a_params)
        assert verify_set(mub_set).passed
        assert underived(mub_set)

    def test_exact_writers_derive_no_amps(self, no_amps):
        from mubkit.serialize import dumps, mubset_json_chunks, mubset_to_doc

        for mub_set in (build_complete_set(5), build_composite_set(2, 2)):
            text = "".join(mubset_json_chunks(mub_set, exact=True))
            assert text == dumps(mubset_to_doc(mub_set, exact=True)) + "\n"
            assert underived(mub_set)

    def test_verify_unbiased_of_exact_bases_derives_no_amps(self, no_amps):
        a, b = build_basis(7, 1), build_basis(7, 2)
        assert verify_unbiased(a, b).passed and verify_unbiased(a, a).passed
        assert not verify_unbiased(a, MubBasis.from_arrays(7, "copy", exponents=a.exponents)).passed
        assert underived(a, b)

    def test_reading_an_exact_document_derives_no_amps(self, no_amps):
        from mubkit.serialize import mubset_from_doc, mubset_to_doc

        sets = [(built, mubset_from_doc(mubset_to_doc(built, exact=True)))
                for built in (build_complete_set(7), build_composite_set(3, 2))]
        for built, read in sets:
            assert verify_set(read) == verify_set(built)
            assert underived(read)
        no_amps.undo()
        for built, read in sets:
            assert read.labels == built.labels
            assert np.array_equal(read.exponents, built.exponents)
            assert np.array_equal(read.amps, built.amps)
            for basis, alone in zip(read.bases, built.bases, strict=True):
                assert np.array_equal(basis.class_labels, alone.class_labels)

    @settings(max_examples=60, deadline=None)
    @given(exact_stacks())
    def test_first_read_is_the_derivation(self, stack):
        d, exps, scales = stack
        n = len(exps)
        mub_set = MubSet._of_stacks(d, tuple(range(n)), exps.copy(), scales.copy())
        assert underived(mub_set)
        amps = mub_set.amps
        expected = mub._amplitudes(d, exps, scales)
        assert amps.dtype == expected.dtype and amps.tobytes() == expected.tobytes()
        assert not amps.flags.writeable
        assert mub_set.amps is amps
        bases = mub_set.bases
        assert mub_set.bases is bases
        for k, basis in enumerate(bases):
            assert np.shares_memory(basis.amps, amps[k])
            assert basis.amps.tobytes() == amps[k].tobytes()
            alone = MubBasis.from_arrays(d, k, exponents=exps[k], scales=scales[k])
            assert underived(alone)
            assert alone.amps.tobytes() == amps[k].tobytes()
            assert alone.amps is alone.amps and not alone.amps.flags.writeable

    def test_float_rows_are_kept_verbatim(self):
        from mubkit.serialize import dumps, mubset_from_doc, mubset_to_doc

        rng = np.random.default_rng(5)
        floats = [MubBasis.from_arrays(5, f"f{k}", rng.normal(size=(5, 5, 2)).view(complex)[..., 0])
                  for k in range(2)]
        exact = build_basis(5, 2)
        # a float basis holds its amps from construction
        assert all("amps" in vars(b) for b in floats) and underived(exact)
        for bases in (floats, [exact, floats[0]], [floats[1], exact, floats[0]]):
            mub_set = MubSet(5, tuple(bases))
            assert "amps" in vars(mub_set)
            assert mub_set.exact_bases.tolist() == [b is exact for b in bases]
            for k, basis in enumerate(bases):
                assert mub_set.amps[k].tobytes() == basis.amps.tobytes()
                assert mub_set.bases[k].amps.tobytes() == basis.amps.tobytes()
        doc = json.loads(dumps(mubset_to_doc(MubSet(5, tuple(floats)), exact=False)))
        read = mubset_from_doc(doc)
        assert not read.exact and read.exponents.shape == (0, 5, 5)
        for k, basis in enumerate(floats):
            assert read.amps[k].tobytes() == basis.amps.tobytes()
            assert read.bases[k].amps.tobytes() == basis.amps.tobytes()

    def test_stripped_vectors_build_a_float_set(self):
        # how a benchmark self-test plants a set without exact exponents
        built = build_complete_set(7)
        bases = tuple(
            MubBasis(b.dim, b.label, tuple(dataclasses.replace(v, exact_exponents=None)
                                           for v in b.vectors))
            for b in built.bases
        )
        mub_set = MubSet(built.dim, bases)
        assert not mub_set.exact and not mub_set.exact_bases.any()
        assert mub_set.exponents.shape == (0, 7, 7)
        assert mub_set.amps.tobytes() == built.amps.tobytes()
        rep = verify_set(mub_set)
        assert rep.passed and rep.details["exact"] is False
        assert rep.details["gram_pairs"] == 8 * 9 // 2 and rep.details["integer_pairs"] == 0


def base_chain(array):
    """array, its base, its base's base, ..., as long as they are arrays."""
    while isinstance(array, np.ndarray):
        yield array
        array = array.base


def assert_immutable(array):
    """No array in array's .base chain can be made writable or written to."""
    for link in base_chain(array):
        with pytest.raises(ValueError):
            link.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            link[(0,) * link.ndim] = 0


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestSharedPrimeStacks:
    """Every set built at one prime d is a new set carrying the fields of one checked
    template, in immutable memory; forced sets and every verdict are built afresh."""

    @pytest.mark.parametrize("d", [2, 5, 7])
    def test_builds_at_one_prime_share_their_stacks(self, d):
        first, second = build_complete_set(d), build_complete_set(d)
        assert first is not second
        for name in mub._SET_FIELDS:
            assert getattr(first, name) is getattr(second, name), name

    @pytest.mark.parametrize("d", [2, 7])
    def test_derived_caches_are_each_builds_own(self, d):
        first, second = build_complete_set(d), build_complete_set(d)
        amps, bases = first.amps, first.bases
        template = mub._prime_set(d)
        for other in (second, template):
            assert "amps" not in vars(other) and "bases" not in vars(other)
        assert second.amps is not amps and second.bases is not bases
        np.testing.assert_array_equal(second.amps, amps)

    def test_each_prime_is_checked_once_and_every_set_decided(self, monkeypatch):
        checked, recognized = [], []
        of_stacks, basis_codes = MubSet._of_stacks, mub._basis_codes

        def counted_of_stacks(*args, **kwargs):
            checked.append(args[0])
            return of_stacks(*args, **kwargs)

        def counted_basis_codes(*args):
            recognized.append(args)
            return basis_codes(*args)

        monkeypatch.setattr(MubSet, "_of_stacks", counted_of_stacks)
        monkeypatch.setattr(mub, "_basis_codes", counted_basis_codes)
        mub._prime_set.cache_clear()
        for d in (5, 7, 5, 7, 7):
            assert verify_set(build_complete_set(d)).passed
        assert checked == [5, 7]
        assert len(recognized) == 5

    @pytest.mark.parametrize("d", [4, 6, 9])
    def test_forced_builds_are_not_cached(self, d):
        cached = mub._prime_set.cache_info().currsize
        first, second = build_complete_set(d, force=True), build_complete_set(d, force=True)
        assert not np.shares_memory(first.exponents, second.exponents)
        assert not np.shares_memory(first.scales, second.scales)
        assert mub._prime_set.cache_info().currsize == cached

    def test_no_write_reaches_a_shared_array(self):
        built, composite = build_complete_set(5), build_composite_set(2, 2)
        for array in (built.exponents, built.scales, built.exact_bases, built.bases[1].exponents,
                      composite.class_labels, composite.bases[1].class_labels):
            assert_immutable(array)
        # a write through .base once zeroed the cached spread under every later composite set
        assert build_composite_set(2, 2).class_labels[1:, :, 1].any()
        assert verify_set(build_complete_set(5)).passed

    @pytest.mark.parametrize("cached", [
        pytest.param(functools.partial(getattr(module, name), *args), id=name)
        for module, name, args in (
            (composite_module, "_class_labels", (2, 2)),
            (composite_module, "_spread_forms", (3, 2)),
            (cyclo, "_points", (3, 2)),
            (cyclo, "_unit_slots", (3, 2)),
            (mub, "_form_layout", (9, 3, 2)),
            (mub, "_pair_table", (4,)),
            (cyclo, "_phase_table", (10,)),
            (cyclo, "conjugate_phases", (5,)),
            (mub, "_prime_set", (5,)),
        )
    ] + [pytest.param(lambda: stored_stacks(3, 2, (1, 2)), id="_STACK_STORE")])
    def test_every_cached_array_is_immutable(self, cached):
        value = cached()
        if isinstance(value, MubSet):
            value = tuple(getattr(value, name) for name in mub._SET_FIELDS)
        arrays = [a for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)]
        assert arrays
        for array in arrays:
            assert_immutable(array)

    def test_cache_is_keyed_on_an_integer_d(self):
        built = build_complete_set(7)
        # 7.0 hashes like 7, so only the integer check keeps it from the d = 7 stacks
        with pytest.raises(TypeError):
            build_complete_set(7.0)
        numpy_int = build_complete_set(np.int64(7))
        assert np.shares_memory(numpy_int.exponents, built.exponents)
        assert type(numpy_int.dim) is int and numpy_int.dim == 7
        with pytest.raises(ValueError, match=">= 2"):
            build_complete_set(True)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(PRIMES_TO_31) | st.integers(4, 31), min_size=1, max_size=5))
    def test_shared_stacks_equal_a_fresh_build(self, dims):
        # primes and forced non-primes interleaved; force=True at a prime d takes the shared stacks
        for d in dims:
            built = build_complete_set(d, force=True)
            assert built.forced is (d not in PRIMES_TO_31)
            fresh = MubSet._of_stacks(d, ("s", *range(d)), *mub._cyclic_stacks(d),
                                      forced=built.forced)
            np.testing.assert_array_equal(built.exponents, fresh.exponents)
            np.testing.assert_array_equal(built.scales, fresh.scales)
            assert verify_set(built) == verify_set(fresh)


def stored_stacks(p, e, a_params):
    """The store's entry for (p, e, a_params), put there by a build if it is not."""
    build_composite_set(p, e, a_params)
    return composite_module._STACK_STORE[p, e, a_params]


def fresh_stacks(p, e, a_params):
    """The exponents and scales of the set at (p, e, a_params), written afresh."""
    forms = composite_module._spread_forms(p, e)
    return mub._complete_stacks(p**e, composite_module._stabilizer_exponents(p, e, forms, a_params))


def stored_bytes():
    """The bytes of every array in the store."""
    return sum(array.nbytes for entry in composite_module._STACK_STORE.values()
               for array in entry)


def counted_calls(monkeypatch, name):
    """The calls made from now on to composite's function name, which still runs."""
    calls, function = [], getattr(composite_module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(composite_module, name, counted)
    return calls


#: (p, e) with p**e <= 27 and e >= 2, the sizes of the prime_power mix.
SMALL_PRIME_POWERS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


class TestCompositeStackStore:
    """A composite set's stacks are written once per (p, e, a_params) and stored as int16,
    bounded in bytes; every build is still checked, and only a passing set is stored."""

    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        monkeypatch.setattr(composite_module, "_STACK_STORE", type(composite_module._STACK_STORE)())

    @pytest.mark.parametrize("p,e,a_params", [(2, 2, (0, 1)), (3, 2, (1, 2)), (2, 4, (1, 0, 1, 1))])
    def test_second_build_is_served_from_the_store(self, p, e, a_params, monkeypatch):
        writes = counted_calls(monkeypatch, "_stabilizer_exponents")
        first = build_composite_set(p, e, a_params)
        second = build_composite_set(p, e, list(a_params))
        assert len(writes) == 1
        exps, scales = composite_module._STACK_STORE[p, e, a_params]
        assert exps.dtype == np.int16 and scales.dtype == np.int64
        fresh_exps, fresh_scales = fresh_stacks(p, e, a_params)
        for built in (first, second):
            assert built.exponents.dtype == built.scales.dtype == np.int64
            np.testing.assert_array_equal(built.exponents, fresh_exps)
            np.testing.assert_array_equal(built.scales, fresh_scales)
        # each set widens its own exponents; the scales are shared
        assert not np.shares_memory(first.exponents, second.exponents)
        assert not np.shares_memory(second.exponents, exps)
        assert np.shares_memory(second.scales, scales)

    def test_a_store_hit_is_still_checked(self, monkeypatch):
        calls = counted_calls(monkeypatch, "_pair_verdicts")
        for _ in range(3):
            build_composite_set(2, 3, (1, 0, 1))
        assert len(calls) == 3
        assert len(composite_module._STACK_STORE) == 1

    def test_no_write_reaches_a_stored_array(self):
        built = [build_composite_set(3, 2, (1, 2)) for _ in range(2)]  # a miss, then a hit
        for array in composite_module._STACK_STORE[3, 2, (1, 2)]:
            assert_immutable(array)
        # a set's own arrays can be made writable; writing them leaves the store as it was
        for mub_set in built:
            for array in (mub_set.exponents, mub_set.scales):
                for link in base_chain(array):
                    try:
                        link.setflags(write=True)
                    except ValueError:
                        continue
                    link[...] = 0
        again = build_composite_set(3, 2, (1, 2))
        for got, fresh in zip((again.exponents, again.scales), fresh_stacks(3, 2, (1, 2))):
            np.testing.assert_array_equal(got, fresh)
        assert verify_set(again).passed

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SMALL_PRIME_POWERS).flatmap(
        lambda pe: st.tuples(st.just(pe), st.lists(st.integers(0, pe[0] - 1), min_size=pe[1],
                                                     max_size=pe[1]).map(tuple))),
        min_size=1, max_size=6))
    def test_stored_stacks_equal_a_fresh_write(self, builds):
        # hits and misses interleaved, across sizes and phase vectors
        for (p, e), a_params in builds:
            built = build_composite_set(p, e, a_params)
            exps, scales = fresh_stacks(p, e, a_params)
            np.testing.assert_array_equal(built.exponents, exps)
            np.testing.assert_array_equal(built.scales, scales)
            fresh = MubSet._of_stacks(p**e, built.labels, exps, scales,
                                      class_labels=composite_module._class_labels(p, e))
            assert verify_set(built) == verify_set(fresh)

    def test_eviction_keeps_the_store_within_its_cap(self, monkeypatch):
        # one d = 9 entry holds 1620 bytes of exponents and 720 of scales: the cap fits three
        monkeypatch.setattr(composite_module, "STACK_STORE_BYTES", 3 * 2340 + 100)
        keys = [(3, 2, (a, b)) for a in range(3) for b in range(3)]
        for key in keys:
            build_composite_set(*key)
            assert stored_bytes() <= composite_module.STACK_STORE_BYTES
        assert list(composite_module._STACK_STORE) == keys[-3:]
        # a hit makes its entry the most recently used, so the oldest other one goes next
        build_composite_set(*keys[-3])
        build_composite_set(*keys[0])
        assert list(composite_module._STACK_STORE) == [keys[-1], keys[-3], keys[0]]
        # an entry larger than the cap is not kept
        build_composite_set(2, 4)
        assert (2, 4, (0,) * 4) not in composite_module._STACK_STORE
        assert stored_bytes() <= composite_module.STACK_STORE_BYTES

    def test_a_failing_construction_stores_nothing(self, monkeypatch):
        write = composite_module._stabilizer_exponents

        def planted(*args):
            exps = write(*args)
            exps[1] = exps[0]
            return exps

        monkeypatch.setattr(composite_module, "_stabilizer_exponents", planted)
        for _ in range(2):
            with pytest.raises(composite_module.ConstructionError):
                build_composite_set(2, 2)
        assert not composite_module._STACK_STORE


class TestGaussSum:
    def test_d3_offdiagonal_magnitude(self):
        abs2, numeric = gauss_sum_magnitude(3, 1, 0, 0, 0)
        assert abs2 == 3
        assert numeric == pytest.approx(np.sqrt(3), abs=1e-12)
        # |1 + 2q|: two of the three terms coincide at q
        q = np.exp(2j * np.pi / 3)
        assert numeric == pytest.approx(abs(1 + 2 * q), abs=1e-12)

    def test_diagonal_full_magnitude(self):
        for d in (2, 3, 5, 7):
            abs2, numeric = gauss_sum_magnitude(d, 1 % d, 1 % d, 2 % d, 2 % d)
            assert abs2 == d * d
            assert numeric == pytest.approx(d, abs=1e-12)

    def test_diagonal_orthogonal(self):
        for d in (3, 5, 7):
            abs2, numeric = gauss_sum_magnitude(d, 2, 2, 0, 1)
            assert abs2 == 0
            assert numeric == pytest.approx(0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
    def test_overlap_consistency(self, d):
        # d * |<a n_a | b n_b>| equals the structured-sum magnitude
        bases = [build_basis(d, a) for a in range(d)]
        for a in range(d):
            for b in range(d):
                moduli = np.abs(overlap_matrix(bases[a], bases[b]))
                for n_alpha in range(d):
                    for n_beta in range(d):
                        _, numeric = gauss_sum_magnitude(d, a, b, n_alpha, n_beta)
                        assert d * moduli[n_alpha, n_beta] == pytest.approx(
                            numeric, abs=1e-12
                        )

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_matches_written_out_formula_bit_for_bit(self, d):
        table = _phase_table(2 * d)
        for a, b, n_alpha, n_beta in itertools.product(range(d), repeat=4):
            exps = np.array([(k * (d - k) * (a - b) + 2 * k * (n_alpha - n_beta)) % (2 * d)
                             for k in range(d)])
            abs2, numeric = gauss_sum_magnitude(d, a, b, n_alpha, n_beta)
            assert numeric.hex() == abs(complex(table[exps].sum())).hex()
            assert abs2 == CyclotomicSum.from_exponent_counts(exps, d).abs_squared()

    def test_expected_table(self):
        assert gauss_sum_expected_sq(5, 1, 1, 2, 2) == 25
        assert gauss_sum_expected_sq(5, 1, 1, 2, 3) == 0
        assert gauss_sum_expected_sq(5, 1, 2, 0, 0) == 5
