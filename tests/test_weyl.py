import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubkit import weyl
from mubkit.cyclo import CyclotomicSum, _phase_table
from mubkit.weyl import (
    OperatorMatrix,
    WedgeIndex,
    _commutator_residuals,
    _monomial_rows,
    _unit_sums_equal,
    build_t,
    build_v,
    build_z,
    character_vector,
    exact_equal,
    ffz_commutator_residual,
    ffz_sweep,
    q_commutation_residual,
    select_ffz_sign_convention,
    trace_inner_exact,
)

Q3 = np.exp(2j * np.pi / 3)


class TestBuildV:
    def test_d3_a1_matches_display(self):
        expected = np.array(
            [[0, Q3, 0], [0, 0, Q3**2], [1, 0, 0]], dtype=complex
        )
        assert np.allclose(build_v(3, 1).entries, expected, atol=1e-14)

    def test_d2_a0_is_flip(self):
        assert np.allclose(build_v(2, 0).entries, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_unitary(self, d):
        for a in range(d):
            assert build_v(d, a).unitarity_residual() < 1e-12

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            build_v(3, 3)
        with pytest.raises(ValueError):
            build_v(3, -1)
        with pytest.raises(ValueError):
            build_v(1, 0)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_order_is_d_for_odd_d(self, d):
        for a in range(d):
            assert exact_equal(build_v(d, a).power(d), OperatorMatrix.identity(d))

    def test_order_at_d2_picks_up_sign(self):
        assert exact_equal(build_v(2, 0).power(2), OperatorMatrix.identity(2))
        minus_identity = OperatorMatrix.identity(2).scale_phase(2)  # tau^2 = -1
        assert exact_equal(build_v(2, 1).power(2), minus_identity)


class TestTraceOrthogonality:
    def test_d3_cross_trace_vanishes(self):
        t = trace_inner_exact(build_v(3, 0), build_v(3, 1))
        assert t == 0
        assert np.trace(build_v(3, 0).entries.conj().T @ build_v(3, 1).entries) == (
            pytest.approx(0, abs=1e-12)
        )

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_exact_delta(self, d):
        mats = [build_v(d, a) for a in range(d)]
        for a in range(d):
            for b in range(d):
                expected = d if a == b else 0
                assert trace_inner_exact(mats[a], mats[b]) == expected


class TestBuildZ:
    def test_d2(self):
        assert np.allclose(build_z(2).entries, np.diag([1, -1]))

    def test_d3(self):
        assert np.allclose(build_z(3).entries, np.diag([1, Q3, Q3**2]), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_unitary(self, d):
        assert build_z(d).unitarity_residual() < 1e-12

    @pytest.mark.parametrize("d", list(range(2, 20)))
    def test_group_relation_v_a_equals_v0_z_pow_a(self, d):
        z = build_z(d)
        v0 = build_v(d, 0)
        for a in range(d):
            assert exact_equal(build_v(d, a), v0 @ z.power(a))


class TestCharacterVector:
    def test_trivial_character(self):
        chi = character_vector(3, 0)
        assert [c.value for c in chi] == [0, 0, 0]

    def test_a2_wraps(self):
        chi = character_vector(3, 2)
        # (1, q^2, q^4 = q): tau exponents 0, 4, 2
        assert [c.value for c in chi] == [0, 4, 2]

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_hermitian_products_are_delta(self, d):
        # direct summation oracle over the complex values
        chars = [
            np.array([c.evaluate() for c in character_vector(d, a)]) for a in range(d)
        ]
        for a in range(d):
            for b in range(d):
                inner = chars[a].conj() @ chars[b]
                assert inner == pytest.approx(d if a == b else 0, abs=1e-12)


class TestBuildT:
    def test_pure_shift(self):
        assert exact_equal(build_t(3, 0, (1, 0), +1), build_v(3, 0))

    def test_pure_clock(self):
        assert exact_equal(build_t(3, 0, (0, 1), +1), build_z(3))

    def test_d2_mixed_carries_i(self):
        t = build_t(2, 0, (1, 1), +1)
        oracle = 1j * (build_v(2, 0).entries @ build_z(2).entries)
        assert np.allclose(t.entries, oracle, atol=1e-14)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            build_t(3, 0, (1, 0), 2)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            build_t(3, 0, (-1, 0), +1)


def monomial_chain(d, a, m1, m2, sigma):
    """tau**(sigma m1 m2) V_a**m1 Z**m2 from exact operator products."""
    return (build_v(d, a).power(m1) @ build_z(d).power(m2)).scale_phase(sigma * m1 * m2)


def commutator_reference(d, a, sigma, m, n):
    """max |[T_m, T_n] - 2i sin(pi m^n/d) T_{m+n}| for one pair, from build_t matrices."""
    t_m, t_n, t_sum = (
        build_t(d, a, k, sigma).entries for k in (m, n, (m[0] + n[0], m[1] + n[1]))
    )
    wedge = m[0] * n[1] - m[1] * n[0]
    return np.abs(t_m @ t_n - t_n @ t_m - 2j * np.sin(np.pi * wedge / d) * t_sum).max()


@st.composite
def weyl_params(draw, max_d):
    d = draw(st.integers(2, max_d))
    return d, draw(st.integers(0, d - 1)), draw(st.sampled_from([+1, -1]))


class TestClosedForm:
    @settings(max_examples=80, deadline=None)
    @given(weyl_params(13), st.data())
    def test_build_t_equals_operator_products(self, params, data):
        d, a, sigma = params
        m1, m2 = data.draw(st.tuples(st.integers(0, 3 * d), st.integers(0, 3 * d)))
        assert np.array_equal(
            build_t(d, a, (m1, m2), sigma).exact, monomial_chain(d, a, m1, m2, sigma).exact
        )

    @settings(max_examples=60, deadline=None)
    @given(weyl_params(9), st.data())
    def test_batched_residuals_match_per_pair_reference(self, params, data):
        d, a, sigma = params
        pairs = st.lists(
            st.tuples(st.integers(0, 3 * d), st.integers(0, 3 * d)), min_size=1, max_size=4
        )
        ms, ns = data.draw(pairs), data.draw(pairs)
        expected = [[commutator_reference(d, a, sigma, m, n) for n in ns] for m in ms]
        # entries are O(1), so rounding stays far below 1e-13
        np.testing.assert_allclose(
            _commutator_residuals(d, a, sigma, ms, ns)[0], expected, rtol=0, atol=1e-13
        )


    @settings(max_examples=100, deadline=None)
    @given(weyl_params(9), st.data())
    def test_exact_verdict_matches_dense_oracle(self, params, data):
        d, a, sigma = params
        pairs = st.lists(
            st.tuples(st.integers(0, 3 * d), st.integers(0, 3 * d)), min_size=1, max_size=4
        )
        ms, ns = data.draw(pairs), data.draw(pairs)
        # a failing pair misses by O(1/d**2), far above float rounding
        expected = [[commutator_reference(d, a, sigma, m, n) < 1e-9 for n in ns] for m in ms]
        assert _commutator_residuals(d, a, sigma, ms, ns)[1].tolist() == expected
        opposite = -select_ffz_sign_convention()
        assert not _commutator_residuals(d, a, opposite, [(1, 0)], [(0, 1)])[1][0, 0]


@st.composite
def unit_sum_cases(draw):
    """(d, u1, u2, v1, v2): random exponents, a swapped pair, or two antipodal pairs."""
    d = draw(st.integers(2, 12))
    u1, u2, v1, v2 = (draw(st.integers(-2 * d, 4 * d)) for _ in range(4))
    mode = draw(st.sampled_from(["random", "swap", "antipodal"]))
    if mode == "swap":
        v1, v2 = u2 + 2 * d, u1
    elif mode == "antipodal":
        u2, v2 = u1 + d, v1 - d
    return d, u1, u2, v1, v2


class TestUnitSums:
    @settings(max_examples=200, deadline=None)
    @given(unit_sum_cases())
    @example((4, 1, 5, 2, 6))
    def test_matches_certificate(self, case):
        d, u1, u2, v1, v2 = case
        lhs = CyclotomicSum.from_exponent_counts([u1, u2], d)
        rhs = CyclotomicSum.from_exponent_counts([v1, v2], d)
        # the first exponent of each side must come reduced
        assert bool(_unit_sums_equal(u1 % (2 * d), u2, v1 % (2 * d), v2, 2 * d)) is (lhs == rhs)


class TestQCommutation:
    @pytest.mark.parametrize("d,a", [(3, 0), (2, 1)])
    def test_exact_zero_examples(self, d, a):
        rep = q_commutation_residual(d, a)
        assert rep.passed
        assert rep.details["exact_zero"]
        assert rep.max_residual == 0.0

    def test_d5_every_a(self):
        for a in range(5):
            rep = q_commutation_residual(5, a)
            assert rep.details["exact_zero"]

    @pytest.mark.parametrize("d", list(range(2, 20)))
    def test_all_dims_all_a(self, d):
        for a in range(d):
            assert q_commutation_residual(d, a).details["exact_zero"]


class TestFfz:
    def test_selected_convention_is_negative(self):
        assert select_ffz_sign_convention() == -1

    def test_basic_pair_passes_with_selected_convention(self):
        rep = ffz_commutator_residual(3, 0, (1, 0), (0, 1))
        assert rep.passed
        assert rep.max_residual < 1e-10
        assert rep.details["sign_convention"] == -1

    def test_equal_indices_commute_exactly(self):
        for d in (2, 3, 5):
            rep = ffz_commutator_residual(d, 0, (2, 1), (2, 1))
            assert rep.max_residual == 0.0

    def test_opposite_convention_fails(self):
        rep = ffz_commutator_residual(3, 0, (1, 0), (0, 1), sign_convention=+1)
        assert not rep.passed
        assert rep.details["exact"] is False
        assert rep.max_residual > 0.1

    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep(self, d):
        for a in range(d):
            rep = ffz_sweep(d, a)
            assert rep.passed
            assert rep.details["exact"] is True
            assert rep.details["m_range"] == [0, 2 * d - 1]
            assert rep.details["opposite_sign_fails"]

    def test_sweep_records_convention(self):
        rep = ffz_sweep(3, 1, max_m=3)
        assert rep.details["sign_convention"] == -1
        assert rep.details["includes_zero_indices"]


def per_m_residuals(d, a, sigma, ms, ns):
    """_commutator_residuals with one m row against the n stack at a time, the same formulas."""
    ms = np.asarray(ms, dtype=np.int64).reshape(-1, 2)
    n1, n2 = np.asarray(ns, dtype=np.int64).reshape(-1, 2).T
    two_d, r = 2 * d, np.arange(d)
    table = _phase_table(two_d)

    def rows(m1, m2):
        return _monomial_rows(d, a, m1, m2, sigma * m1 * m2)

    e_n = rows(n1, n2)
    residual = np.empty((len(ms), len(n1)))
    exact = np.empty((len(ms), len(n1)), dtype=bool)
    for i, (m1, m2) in enumerate(ms):
        e_m, e = rows(m1, m2), rows(m1 + n1, m2 + n2)
        x = (e_m + e_n[:, (r + m1) % d]) % two_d
        x_rev = (e_n + e_m[(r + n1[:, None]) % d]) % two_d
        w = (m1 * n2 - m2 * n1)[:, None]
        exact[i] = _unit_sums_equal(x, e - w, x_rev, e + w, two_d).all(axis=1)
        sine = 2j * np.sin(np.pi * w / d)
        residual[i] = np.abs(table[x] - table[x_rev] - sine * table[e]).max(axis=1)
    return residual, exact


def assert_bitwise_equal(got, expected):
    assert got[0].tobytes() == expected[0].tobytes()
    assert np.array_equal(got[1], expected[1])


class TestBlockedSweep:
    """The blocked kernel against one m row at a time: residuals equal to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(weyl_params(11), st.data())
    def test_matches_per_m_loop(self, params, data):
        d, a, sigma = params
        pairs = st.lists(
            st.tuples(st.integers(0, 3 * d), st.integers(0, 3 * d)), min_size=1, max_size=30
        )
        ms, ns = data.draw(pairs), data.draw(pairs)
        # from one m row per block (block < N d) to every m row in one block
        block = data.draw(st.integers(1, 2 * len(ms) * len(ns) * d))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weyl, "_FFZ_BLOCK", block)
            got = _commutator_residuals(d, a, sigma, ms, ns)
        assert_bitwise_equal(got, per_m_residuals(d, a, sigma, ms, ns))

    @pytest.mark.parametrize("rows_per_block", [1, 7, 64, 99, 100])
    def test_full_sweep_grid(self, monkeypatch, rows_per_block):
        # the d = 5 sweep grid has 100 m rows, and 100 is no multiple of 7, 64 or 99
        d, grid = 5, [(m1, m2) for m1 in range(10) for m2 in range(10)]
        monkeypatch.setattr(weyl, "_FFZ_BLOCK", rows_per_block * len(grid) * d)
        for a in range(d):
            sigma = select_ffz_sign_convention()
            got = _commutator_residuals(d, a, sigma, grid, grid)
            assert_bitwise_equal(got, per_m_residuals(d, a, sigma, grid, grid))
            assert got[1].all()

    def test_default_block_at_d11(self):
        # one m row of the d = 11 sweep (484 x 11 elements) fills a default block
        d, grid = 11, [(m1, m2) for m1 in range(22) for m2 in range(22)]
        assert len(grid) * d <= weyl._FFZ_BLOCK < 2 * len(grid) * d
        ms = grid[::37]
        got = _commutator_residuals(d, 4, -1, ms, grid)
        assert_bitwise_equal(got, per_m_residuals(d, 4, -1, ms, grid))


class TestOperatorMatrix:
    def test_exact_annotation_matches_entries(self):
        for build in (lambda: build_v(7, 3), lambda: build_z(7), lambda: build_t(5, 2, (2, 3), -1)):
            m = build()
            table = np.exp(2j * np.pi * np.arange(2 * m.dim) / (2 * m.dim))
            recon = np.where(m.exact < 0, 0, table[np.where(m.exact < 0, 0, m.exact)])
            assert np.abs(recon - m.entries).max() < 1e-12

    def test_dagger_involution(self):
        m = build_v(5, 2)
        assert exact_equal(m.dagger().dagger(), m)

    def test_tensor_of_exact_matrices(self):
        a, b = build_v(2, 1), build_z(3)
        t = a.tensor(b)
        assert t.dim == 6
        assert np.allclose(t.entries, np.kron(a.entries, b.entries), atol=1e-12)
        assert t.exact is not None

    def test_matmul_dim_mismatch(self):
        with pytest.raises(ValueError):
            build_v(2, 0) @ build_v(3, 0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            build_v(3, 0).power(-1)


class TestWedgeIndex:
    def test_wedge_value(self):
        assert WedgeIndex(1, 0).wedge(WedgeIndex(0, 1)) == 1
        assert WedgeIndex(2, 3).wedge(WedgeIndex(5, 1)) == 2 - 15

    def test_add(self):
        s = WedgeIndex(1, 2) + WedgeIndex(3, 4)
        assert (s.m1, s.m2) == (4, 6)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            WedgeIndex(-1, 0)
