import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import canonicalize_coeffs
from mubkit.cyclo import CyclotomicSum, PhaseExponent, is_prime


def direct_eval(raw, d):
    """Independent oracle: sum coefficients against exp(i*pi*k/d) directly."""
    return sum(c * np.exp(1j * np.pi * k / d) for k, c in enumerate(raw))


def zeta_coeffs(pairs, d):
    """Raw tau-coefficients of sum c_m zeta**m, zeta = tau**2."""
    raw = [0] * (2 * d)
    for m, c in pairs:
        raw[(2 * m) % (2 * d)] += c
    return raw


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(25):
            assert is_prime(n) == (n in primes)


class TestPhaseExponent:
    def test_normalization(self):
        assert PhaseExponent(7, 6).value == 1
        assert PhaseExponent(-1, 6).value == 5

    def test_group_ops(self):
        a = PhaseExponent(4, 6)
        b = PhaseExponent(5, 6)
        assert (a + b).value == 3
        assert (-a).value == 2
        assert (a - b).value == 5
        assert a.conj().value == 2

    def test_modulus_mismatch_raises(self):
        with pytest.raises(ValueError):
            PhaseExponent(1, 4) + PhaseExponent(1, 6)

    def test_odd_modulus_rejected(self):
        with pytest.raises(ValueError):
            PhaseExponent(0, 5)

    def test_evaluate(self):
        assert PhaseExponent(1, 4).evaluate() == pytest.approx(1j)
        assert PhaseExponent(3, 6).evaluate() == pytest.approx(-1)


class TestReduce:
    def test_full_root_sum_vanishes(self):
        # zeta^0 + zeta^1 + zeta^2 at d=3: stored as given, zero by the certificate
        raw = zeta_coeffs([(0, 1), (1, 1), (2, 1)], 3)
        x = CyclotomicSum(raw, 3)
        assert x.is_zero()
        assert np.array_equal(x.coeffs, raw)
        assert not canonicalize_coeffs(x.coeffs, 3).any()

    def test_tau_d_folds_to_minus_one(self):
        x = CyclotomicSum([0, 0, 0, 1, 0, 0], 3)  # tau^3
        expected = np.zeros(6, dtype=np.int64)
        expected[0] = -1
        assert x == -1
        assert x.as_int() == -1
        assert np.array_equal(canonicalize_coeffs(x.coeffs, 3), expected)

    def test_d5_canonical_against_direct_eval(self):
        raw = zeta_coeffs([(0, 2), (1, 1)], 5)  # 2 + zeta
        canonical = canonicalize_coeffs(raw, 5)
        # zeta^4 = -tau^3 after the tau-fold, so the 4th zeta slot is exponent 3
        assert canonical[3] == 0
        assert direct_eval(canonical, 5) == pytest.approx(direct_eval(raw, 5), abs=1e-12)
        assert CyclotomicSum(raw, 5).evaluate() == pytest.approx(direct_eval(raw, 5), abs=1e-12)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            CyclotomicSum([1, 0, 0], 3)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_idempotent(self, d):
        rng = np.random.RandomState(7 * d)
        raw = rng.randint(-5, 6, size=2 * d)
        once = canonicalize_coeffs(raw, d)
        assert np.array_equal(canonicalize_coeffs(once, d), once)

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 13])
    def test_reduction_preserves_value(self, d):
        rng = np.random.RandomState(13 * d)
        for _ in range(20):
            raw = rng.randint(-9, 10, size=2 * d)
            assert direct_eval(canonicalize_coeffs(raw, d), d) == pytest.approx(
                direct_eval(raw, d), abs=1e-12
            )
            assert CyclotomicSum(raw, d) == CyclotomicSum(canonicalize_coeffs(raw, d), d)


class TestEvaluate:
    def test_primitive_cube_root(self):
        x = CyclotomicSum.phase(2, 3)
        val = x.evaluate()
        assert val.real == pytest.approx(-0.5, abs=1e-12)
        assert val.imag == pytest.approx(0.8660254037844387, abs=1e-12)

    def test_tau_is_i_at_d2(self):
        assert CyclotomicSum.phase(1, 2).evaluate() == pytest.approx(1j)

    def test_one_plus_two_zeta_magnitude(self):
        x = CyclotomicSum(zeta_coeffs([(0, 1), (1, 2)], 3), 3)
        assert abs(x.evaluate()) ** 2 == pytest.approx(3.0, abs=1e-12)


class TestAbsSquared:
    def test_one_plus_two_zeta_is_three(self):
        x = CyclotomicSum(zeta_coeffs([(0, 1), (1, 2)], 3), 3)
        sq = x.abs_squared()
        assert sq == 3
        assert sq.as_int() == 3
        # brute-force complex oracle agrees
        assert abs(x.evaluate()) ** 2 == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_single_phase_has_unit_modulus(self, d):
        for k in range(2 * d):
            assert CyclotomicSum.phase(k, d).abs_squared() == 1

    def test_vanishing_sum(self):
        x = CyclotomicSum(zeta_coeffs([(0, 1), (1, 1), (2, 1)], 3), 3)
        assert x.abs_squared() == 0


class TestRingProperties:
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 9])
    def test_multiplication_matches_complex_product(self, d):
        rng = np.random.RandomState(101 + d)
        for _ in range(15):
            x = CyclotomicSum(rng.randint(-4, 5, size=2 * d), d)
            y = CyclotomicSum(rng.randint(-4, 5, size=2 * d), d)
            assert (x * y).evaluate() == pytest.approx(
                x.evaluate() * y.evaluate(), abs=1e-10
            )

    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 9])
    def test_multiplication_matches_shift_loop(self, d):
        # reference: sum over k of x_k * (y shifted cyclically by k)
        rng = np.random.RandomState(151 + d)
        for _ in range(15):
            x = CyclotomicSum(rng.randint(-4, 5, size=2 * d), d)
            y = CyclotomicSum(rng.randint(-4, 5, size=2 * d), d)
            raw = sum(x.coeffs[k] * np.roll(y.coeffs, k) for k in range(2 * d))
            assert np.array_equal((x * y).coeffs, CyclotomicSum(raw, d).coeffs)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_conj_is_involution(self, d):
        rng = np.random.RandomState(211 + d)
        x = CyclotomicSum(rng.randint(-6, 7, size=2 * d), d)
        assert np.array_equal(x.conj().conj().coeffs, x.coeffs)

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
    def test_canonical_form_unique_for_prime_d(self, d):
        # Perturb by random multiples of the two defining relations: the
        # shifted tau**d + 1 combinations and the alternating root sum.
        rng = np.random.RandomState(331 + d)
        relation_root = np.where(np.arange(2 * d) % 2 == 0, 1, -1) * (
            np.arange(2 * d) < d
        )
        for _ in range(20):
            raw = rng.randint(-5, 6, size=2 * d)
            perturbed = raw.copy()
            for _ in range(4):
                shift = rng.randint(0, 2 * d)
                fold = np.zeros(2 * d, dtype=np.int64)
                fold[shift] += 1
                fold[(shift + d) % (2 * d)] += 1  # tau**shift (tau**d + 1)
                perturbed = perturbed + rng.randint(-3, 4) * fold
            perturbed = perturbed + rng.randint(-3, 4) * relation_root
            a, b = CyclotomicSum(raw, d), CyclotomicSum(perturbed, d)
            assert a.evaluate() == pytest.approx(b.evaluate(), abs=1e-9)
            assert a == b
            assert np.array_equal(
                canonicalize_coeffs(a.coeffs, d), canonicalize_coeffs(b.coeffs, d)
            )

    def test_nonprime_equality_is_exact(self):
        # At d=6 relations beyond tau^d = -1 and the prime root sum hold;
        # zeta^0 + zeta^2 + zeta^4 = 0 (cube-root sum inside the hexagon).
        # The norm certificate decides it all the same.
        x = CyclotomicSum(zeta_coeffs([(0, 1), (2, 1), (4, 1)], 6), 6)
        assert x.coeffs.any()
        assert x.is_zero()
        assert x == CyclotomicSum.zero(6)

    def test_integer_round_trip(self):
        assert CyclotomicSum.integer(5, 7).as_int() == 5
        assert CyclotomicSum.phase(1, 7).as_int() is None

    def test_equality_against_int(self):
        assert CyclotomicSum.integer(4, 5) == 4
        assert not (CyclotomicSum.integer(4, 5) == 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            CyclotomicSum.one(3) * CyclotomicSum.one(5)

    def test_immutability(self):
        x = CyclotomicSum.one(3)
        with pytest.raises(AttributeError):
            x.dim = 5
        with pytest.raises(ValueError):
            x.coeffs[0] = 2


def vanishing_sums(d):
    """Raw coefficients of tau**j (1 + tau**d) and, for each prime p | d, of
    sum_j tau**(m + 2dj/p): sums that vanish without being zero coefficient-wise."""
    two_d = 2 * d
    sums = []
    for j in range(two_d):
        raw = np.zeros(two_d, dtype=np.int64)
        raw[[j, (j + d) % two_d]] += 1
        sums.append(raw)
    for p in (p for p in range(2, d + 1) if d % p == 0 and is_prime(p)):
        for m in range(two_d):
            raw = np.zeros(two_d, dtype=np.int64)
            np.add.at(raw, (m + two_d // p * np.arange(p)) % two_d, 1)
            sums.append(raw)
    return sums


class TestNormCertificate:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.integers(-9, 9), min_size=len(vanishing_sums(d)),
                     max_size=len(vanishing_sums(d))),
            st.integers(0, 2 * d - 1),
        )
    ))
    def test_decides_vanishing_sums(self, case):
        d, weights, k = case
        raw = sum(w * v for w, v in zip(weights, vanishing_sums(d)))
        x = CyclotomicSum(raw, d)
        assert x.is_zero()
        assert x == CyclotomicSum.zero(d)
        assert not CyclotomicSum.phase(k, d).is_zero()
        assert not (x + CyclotomicSum.phase(k, d)).is_zero()

    @pytest.mark.parametrize("d", [6, 9, 10, 12, 15])
    def test_as_int_at_non_prime_d(self, d):
        # 7 plus a sum over the p-th roots of unity, p the largest prime factor
        x = CyclotomicSum.integer(7, d) + CyclotomicSum(vanishing_sums(d)[-1], d)
        assert x.coeffs[1:].any()
        assert x.as_int() == 7
        assert (x + CyclotomicSum.phase(1, d)).as_int() is None

    def test_refuses_coefficients_too_large_to_decide(self):
        with pytest.raises(ValueError, match="too large"):
            CyclotomicSum.integer(2**50, 5).is_zero()
