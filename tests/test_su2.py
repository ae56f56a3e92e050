import numpy as np
import pytest

from mubkit.su2 import (
    MAX_TWO_J,
    AngularParams,
    _action_relations,
    _commutation_relations,
    _ladder_rows,
    build_h,
    build_ladder,
    build_va_operator,
    check_ladder_action,
    check_su2,
)
from mubkit.weyl import _Rows, build_v, exact_equal


class TestAngularParams:
    def test_validation(self):
        AngularParams(4, 4)
        with pytest.raises(ValueError):
            AngularParams(0, 0)
        with pytest.raises(ValueError):
            AngularParams(3, 4)
        AngularParams(MAX_TWO_J, 0)
        with pytest.raises(ValueError, match=f"two_j must be <= {MAX_TWO_J}"):
            AngularParams(MAX_TWO_J + 1, 0)

    def test_dim(self):
        assert AngularParams(5, 0).dim == 6


class TestBuildH:
    def test_two_j_2(self):
        h = build_h(2)
        assert np.allclose(h.entries, np.diag([np.sqrt(2), np.sqrt(2), 0]))

    def test_two_j_1(self):
        assert np.allclose(build_h(1).entries, np.diag([1, 0]))

    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_hermitian_nonnegative(self, two_j):
        h = build_h(two_j).entries
        assert np.allclose(h, h.conj().T)
        assert (np.diag(h).real >= 0).all()
        assert np.diag(h)[-1] == 0  # zero at m = -j


class TestVaOperator:
    @pytest.mark.parametrize("two_j", range(1, 9))
    def test_matches_weyl_generator(self, two_j):
        for a in range(two_j + 1):
            assert exact_equal(build_va_operator(two_j, a), build_v(two_j + 1, a))

    def test_two_j_2_a0_is_cyclic_shift(self):
        expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        assert np.allclose(build_va_operator(2, 0).entries, expected)

    def test_wrap_action_has_unit_phase(self):
        # |j, j> (column 0) goes to |j, -j> (last row) with amplitude 1
        for two_j, a in [(2, 1), (3, 2), (5, 4)]:
            col = build_va_operator(two_j, a).entries[:, 0]
            assert col[-1] == 1
            assert np.abs(col[:-1]).max() == 0


class TestBuildLadder:
    def test_spin_half(self):
        j_plus, j_minus, j_z = build_ladder(1, 0)
        assert np.allclose(j_plus.entries, [[0, 1], [0, 0]])
        assert np.allclose(j_minus.entries, [[0, 0], [1, 0]])
        assert np.allclose(j_z.entries, np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("a", range(3))
    def test_jz_diagonal_exact_two_j_2(self, a):
        _, _, j_z = build_ladder(2, a)
        assert np.array_equal(j_z.entries, np.diag([1.0, 0.0, -1.0]).astype(complex))

    def test_raising_phase_two_j_2_a1(self):
        q = np.exp(2j * np.pi / 3)
        j_plus, _, _ = build_ladder(2, 1)
        # |1, 0> is column 1; lands on |1, 1> with amplitude q*sqrt(2)
        target = np.zeros(3, dtype=complex)
        target[0] = q * np.sqrt(2)
        assert np.abs(j_plus.entries[:, 1] - target).max() < 1e-14

    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_adjointness(self, two_j):
        for a in range(two_j + 1):
            j_plus, j_minus, _ = build_ladder(two_j, a)
            assert np.abs(j_minus.entries - j_plus.entries.conj().T).max() < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4, 7, 12])
    def test_moduli_independent_of_a(self, two_j):
        reference = np.abs(build_ladder(two_j, 0)[0].entries)
        for a in range(1, two_j + 1):
            assert np.abs(np.abs(build_ladder(two_j, a)[0].entries) - reference).max() < 1e-12


class TestCheckSu2:
    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_condon_shortley_case(self, two_j):
        rep = check_su2(two_j, 0)
        assert rep.passed
        assert rep.max_residual == 0.0

    def test_every_a_at_two_j_4(self):
        for a in range(5):
            rep = check_su2(4, a)
            assert rep.passed, rep.details

    def test_jz_action_exact(self):
        for two_j in range(1, 13):
            rep = check_su2(two_j, two_j // 2)
            assert rep.details["residuals"]["jz_action"] == 0.0

    def test_casimir(self):
        for two_j, a in [(1, 1), (6, 3), (12, 5)]:
            rep = check_su2(two_j, a)
            assert rep.details["residuals"]["casimir"] == 0.0

    @pytest.mark.parametrize("two_j", [600, 2000])
    def test_large_two_j_is_exact(self, two_j):
        # a fixed float tolerance failed here: [j+, j-] missed by about j**2 eps
        for a in (0, 1, two_j):
            rep, action = check_su2(two_j, a), check_ladder_action(two_j, a)
            assert rep.passed and action.passed
            assert set(rep.details["residuals"].values()) == {0.0}
            assert set(action.details["residuals"].values()) == {0.0}

    def test_corrupted_raising_operator_is_localized(self):
        j_plus, j_minus, two_jz = _ladder_rows(3, 1)
        cases = [
            # row 1 of j+ moved from column 2 to column 0
            ("col", 0, {"jz_jp", "jp_jm", "casimir", "adjoint", "raising"}),
            # row 1 of j+ scaled from sqrt(4) to sqrt(5): [j_z, j+] = j+ still holds
            ("norm", 5, {"jp_jm", "casimir", "adjoint", "raising"}),
        ]
        for field, value, broken in cases:
            fields = {name: getattr(j_plus, name).copy() for name in ("col", "exp", "norm")}
            fields[field][1] = value
            corrupted = _Rows(**fields)
            relations = {**_commutation_relations(corrupted, j_minus, two_jz),
                         **_action_relations(corrupted, j_minus, 1)}
            assert {name for name, (holds, _) in relations.items() if not holds} == broken
            for name, (_, residual) in relations.items():
                assert (residual > 0.1) if name in broken else (residual == 0.0)
            assert relations["jz_action"] == (True, 0.0)  # j_z untouched

    def test_commutator_needs_an_integer_diagonal_lowered_product(self):
        # j+ = [[1, 0], [1, 0]] and j- = [[0, 0], [0, 1]]: j+ j- = 0 is an integer diagonal,
        # but j- j+ has its entry at (1, 0), so [j+, j-] = diag(0, -1) fails there
        j_plus = _Rows(np.array([0, 0]), np.array([0, 0]), np.array([1, 1]))
        j_minus = _Rows(np.array([0, 1]), np.array([0, 0]), np.array([0, 1]))
        holds, residual = _commutation_relations(j_plus, j_minus, np.array([0, -1]))["jp_jm"]
        assert not holds and residual == 1.0


class TestLadderAction:
    def test_two_j_2_a0_raising(self):
        j_plus, _, _ = build_ladder(2, 0)
        # j_plus |1,-1> = sqrt(2) |1,0>: column 2 lands on row 1
        col = j_plus.entries[:, 2]
        assert col[1] == pytest.approx(np.sqrt(2), abs=1e-14)

    def test_two_j_2_a2_phase(self):
        q = np.exp(2j * np.pi / 3)
        j_plus, _, _ = build_ladder(2, 2)
        # j_plus |1,0>: phase q^(2*(j-m)) with j-m = 1, magnitude sqrt(2)
        assert j_plus.entries[0, 1] == pytest.approx(q**2 * np.sqrt(2), abs=1e-13)

    def test_lowering_composition_amplitude(self):
        q = np.exp(2j * np.pi / 3)
        for a in range(3):
            _, j_minus, _ = build_ladder(2, a)
            # j_minus |1,1> = q^-a sqrt(2) |1,0>
            assert j_minus.entries[1, 0] == pytest.approx(
                q ** (-a) * np.sqrt(2), abs=1e-13
            )

    @pytest.mark.parametrize("two_j", range(1, 13))
    def test_reports_pass_for_all_a(self, two_j):
        for a in range(two_j + 1):
            rep = check_ladder_action(two_j, a)
            assert rep.passed and rep.max_residual == 0.0
            assert rep.details["raising_checked_against"].startswith("closed-form")
            assert rep.details["lowering_checked_against"] == "operator composition"
