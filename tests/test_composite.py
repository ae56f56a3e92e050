from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit.composite import (
    CommutingClass,
    ConstructionError,
    WeylLabel,
    _class_labels,
    _spread_forms,
    build_composite_set,
    build_w,
    commutation_soundness,
    degeneracy_report,
    joint_eigenbasis,
    partition_commuting_classes,
)
from mubkit import mub
from mubkit.mub import MubBasis, MubSet, build_basis, build_complete_set, overlap_matrix, verify_set
from mubkit.weyl import OperatorMatrix, build_v, build_z


PRIME_POWERS_TO_16 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)
]


def symplectic_oracle(label_a, label_b):
    """Independent symplectic form implementation for cross-checks."""
    total = 0
    for xa, za, xb, zb in zip(label_a.x, label_a.z, label_b.x, label_b.z):
        total += xa * zb - za * xb
    return total % label_a.p


class TestWeylLabel:
    def test_mod_reduction(self):
        lbl = WeylLabel(3, 2, (4, -1), (0, 5))
        assert lbl.x == (1, 2)
        assert lbl.z == (0, 2)

    def test_identity_flag(self):
        assert WeylLabel(2, 1, (0,), (0,)).is_identity()
        assert not WeylLabel(2, 1, (1,), (0,)).is_identity()

    def test_commutation_criterion(self):
        a = WeylLabel(2, 2, (0, 1), (0, 0))
        b = WeylLabel(2, 2, (1, 0), (0, 0))
        c = WeylLabel(2, 2, (0, 0), (0, 1))
        assert a.commutes_with(b)
        assert not a.commutes_with(c)


class TestBuildW:
    def test_double_flip(self):
        lbl = WeylLabel(2, 2, (1, 1), (0, 0))
        w = build_w(2, 2, lbl, (0, 0))
        flip = build_v(2, 0).entries
        assert np.allclose(w.entries, np.kron(flip, flip), atol=1e-14)

    def test_e1_reduces_to_generator(self):
        lbl = WeylLabel(3, 1, (1,), (0,))
        w = build_w(3, 1, lbl, (1,))
        assert np.abs(w.entries - build_v(3, 1).entries).max() < 1e-14

    def test_v_tensor_z_spectrum(self):
        lbl = WeylLabel(2, 2, (1, 0), (0, 1))
        w = build_w(2, 2, lbl, (0, 0))
        oracle = np.kron(build_v(2, 0).entries, build_z(2).entries)
        assert np.allclose(w.entries, oracle, atol=1e-14)
        eigs = np.sort_complex(np.linalg.eigvals(w.entries))
        assert np.allclose(eigs, [-1, -1, 1, 1], atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (2, 2), (2, 3), (3, 2)])
        .flatmap(lambda pe: st.tuples(st.just(pe), *[st.integers(0, pe[0] - 1)] * (3 * pe[1])))
    )
    def test_equals_tensor_of_operator_products(self, drawn):
        (p, e), *flat = drawn
        a_params, x, z = flat[:e], flat[e : 2 * e], flat[2 * e :]
        slots = [build_v(p, a).power(i) @ build_z(p).power(j) for a, i, j in zip(a_params, x, z)]
        expected = reduce(OperatorMatrix.tensor, slots)
        assert np.array_equal(build_w(p, e, WeylLabel(p, e, x, z), a_params).exact, expected.exact)

    def test_capacity_bound(self):
        with pytest.raises(ValueError, match="bound"):
            build_w(2, 8, WeylLabel(2, 8, (1,) * 8, (0,) * 8), (0,) * 8)

    def test_bad_a_params(self):
        with pytest.raises(ValueError):
            build_w(2, 2, WeylLabel(2, 2, (1, 0), (0, 0)), (0,))


class TestDegeneracyReport:
    def test_generator_non_degenerate(self):
        rep = degeneracy_report(build_v(5, 2))
        assert not rep.degenerate
        assert rep.multiplicities == (1,) * 5

    def test_double_flip_degenerate(self):
        lbl = WeylLabel(2, 2, (1, 1), (0, 0))
        rep = degeneracy_report(build_w(2, 2, lbl, (0, 0)))
        assert rep.degenerate
        assert sorted(rep.multiplicities) == [2, 2]
        values = sorted(rep.eigenvalues, key=lambda v: v.real)
        assert values[0] == pytest.approx(-1, abs=1e-10)
        assert values[1] == pytest.approx(1, abs=1e-10)

    def test_identity(self):
        rep = degeneracy_report(OperatorMatrix.identity(4))
        assert rep.multiplicities == (4,)

    def test_non_unitary_rejected(self):
        bad = OperatorMatrix(2, np.array([[1, 1], [0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="unitary"):
            degeneracy_report(bad)


class TestPartition:
    def test_p2_e2_counts(self):
        classes = partition_commuting_classes(2, 2)
        assert len(classes) == 5
        assert all(len(c.members) == 3 for c in classes)
        seen = set()
        for c in classes:
            for lbl in c.members:
                key = (lbl.x, lbl.z)
                assert key not in seen
                seen.add(key)
        assert len(seen) == 15

    def test_p3_e2_counts(self):
        classes = partition_commuting_classes(3, 2)
        assert len(classes) == 10
        assert all(len(c.members) == 8 for c in classes)
        covered = {(l.x, l.z) for c in classes for l in c.members}
        assert len(covered) == 80

    def test_p3_e1_lines(self):
        classes = partition_commuting_classes(3, 1)
        assert len(classes) == 4
        as_sets = [{(l.x[0], l.z[0]) for l in c.members} for c in classes]
        assert {(0, 1), (0, 2)} in as_sets  # clock-only line
        assert {(1, 0), (2, 0)} in as_sets  # shift-only line
        mixed = [s for s in as_sets if all(x and z for x, z in s)]
        assert len(mixed) == 2

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)])
    def test_classes_commute(self, p, e):
        classes = partition_commuting_classes(p, e)
        for c in classes:
            for i, a in enumerate(c.members):
                for b in c.members[i + 1 :]:
                    assert symplectic_oracle(a, b) == 0

    def test_first_class_is_diagonal(self):
        for p, e in [(2, 2), (3, 2), (5, 1)]:
            classes = partition_commuting_classes(p, e)
            assert classes[0].is_diagonal()
            assert not any(c.is_diagonal() for c in classes[1:])

    def test_spread_order(self):
        # all-clock class, then one graph {(x, g x)} per g in increasing order
        classes = partition_commuting_classes(5, 1)
        for g, cls in enumerate(classes[1:]):
            assert [(l.x, l.z) for l in cls.members] == [((x,), (g * x % 5,)) for x in range(1, 5)]
        assert all(not any(l.z) for l in partition_commuting_classes(2, 3)[1].members)

    def test_matrix_level_commutation(self):
        classes = partition_commuting_classes(2, 2)
        rep = commutation_soundness(classes, 2, 2, (0, 0))
        assert rep.passed
        assert rep.max_residual == 0.0
        assert rep.details["symplectic_forms_vanish"]

    @pytest.mark.parametrize("p,e", PRIME_POWERS_TO_16)
    def test_commutation_with_phases_and_a_non_commuting_class(self, p, e):
        classes = partition_commuting_classes(p, e)
        a_params = tuple((i + 1) % p for i in range(e))
        assert commutation_soundness(classes, p, e, a_params).max_residual == 0.0
        # V Z in the first slot against Z there: W_a W_b = q W_b W_a
        shift = WeylLabel(p, e, (1,) + (0,) * (e - 1), (1,) + (0,) * (e - 1))
        clock = WeylLabel(p, e, (0,) * e, (1,) + (0,) * (e - 1))
        bad = CommutingClass(len(classes), (classes[1].members[0], shift, clock))
        rep = commutation_soundness(classes + [bad], p, e, a_params)
        assert not rep.passed and not rep.details["symplectic_forms_vanish"]
        # the dense commutators of the bad class are the reference
        ws = [build_w(p, e, lbl, a_params).entries for lbl in bad.members]
        dense = max(np.abs(a @ b - b @ a).max() for a, b in combinations(ws, 2))
        assert rep.max_residual == pytest.approx(dense, abs=1e-12)
        assert rep.max_residual > 0.1  # |1 - q| = 2 sin(pi/p)

    def test_non_prime_p_rejected(self):
        with pytest.raises(ValueError):
            partition_commuting_classes(4, 1)


class TestJointEigenbasis:
    def test_shift_class_gives_tensor_fourier(self):
        classes = partition_commuting_classes(2, 2)
        shift_class = next(
            c for c in classes if all(not any(l.z) for l in c.members)
        )
        basis = joint_eigenbasis(shift_class, 2, 2, (0, 0))
        # tensor of the 2-dim flip eigenbases: each vector matches exactly one
        plus_minus = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        fourier = np.kron(plus_minus, plus_minus)
        got = basis.as_array()
        matches = np.abs(got.conj() @ fourier.T)
        assert np.allclose(np.sort(matches.max(axis=1)), 1, atol=1e-10)
        assert np.allclose((matches > 0.99).sum(axis=0), 1)

    def test_e1_matches_direct_eigenbasis_overlaps(self):
        # each non-diagonal class at e=1 reproduces one directly-built
        # eigenbasis up to vector order and global phases
        classes = partition_commuting_classes(3, 1)
        references = [build_basis(3, a) for a in range(3)]
        matched = set()
        for cls in classes[1:]:
            basis = joint_eigenbasis(cls, 3, 1, (0,))
            hits = [
                a
                for a, ref in enumerate(references)
                if np.allclose(
                    np.sort(np.abs(overlap_matrix(basis, ref)), axis=1),
                    np.sort(np.eye(3), axis=1),
                    atol=1e-9,
                )
            ]
            assert len(hits) == 1
            matched.add(hits[0])
        assert matched == {0, 1, 2}

    def test_single_degenerate_member_refused(self):
        lone = CommutingClass(99, (WeylLabel(2, 2, (1, 1), (0, 0)),))
        with pytest.raises(ValueError, match="unresolved"):
            joint_eigenbasis(lone, 2, 2, (0, 0))

    def test_non_commuting_class_refused(self):
        bad = CommutingClass(
            98,
            (WeylLabel(2, 1, (1,), (0,)), WeylLabel(2, 1, (0,), (1,))),
        )
        with pytest.raises(ValueError, match="commute"):
            joint_eigenbasis(bad, 2, 1, (0,))

    def test_non_graph_class_refused(self):
        # commuting and complete, but neither all-clock nor a graph over x
        mixed = CommutingClass(
            97,
            tuple(WeylLabel(2, 2, (x, 0), (0, z)) for x, z in [(0, 1), (1, 0), (1, 1)]),
        )
        with pytest.raises(ValueError, match="unresolved"):
            joint_eigenbasis(mixed, 2, 2, (0, 0))

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]).flatmap(
            lambda pe: st.tuples(
                st.just(pe), st.tuples(*[st.integers(0, pe[0] - 1)] * pe[1])
            )
        )
    )
    def test_eigenvector_residuals(self, case):
        (p, e), a_params = case
        for cls in partition_commuting_classes(p, e):
            rows = joint_eigenbasis(cls, p, e, a_params).as_array()
            for lbl in cls.members:
                image = build_w(p, e, lbl, a_params).entries @ rows.T
                lam = np.einsum("ij,ji->i", rows.conj(), image)
                assert np.abs(image - rows.T * lam).max() < 1e-9
                assert np.abs(np.abs(lam) - 1).max() < 1e-9


class TestBuildCompositeSet:
    def test_d4_five_unbiased_bases(self):
        mub_set = build_composite_set(2, 2)
        assert len(mub_set.bases) == 5
        rep = verify_set(mub_set, tol=1e-9)
        assert rep.passed

    def test_d9_ten_bases(self):
        mub_set = build_composite_set(3, 2)
        assert len(mub_set.bases) == 10
        assert verify_set(mub_set, tol=1e-9).passed

    def test_labels_and_class_metadata(self):
        mub_set = build_composite_set(2, 2)
        assert [b.label for b in mub_set.bases] == [f"class:{i}" for i in range(5)]
        assert all(b.class_labels is not None for b in mub_set.bases)
        # the diagonal class supplies the computational basis
        first = mub_set.bases[0].as_array()
        assert np.allclose(first, np.eye(4), atol=0)

    def test_e1_matches_direct_path_overlap_tables(self):
        composite = build_composite_set(5, 1)
        direct = build_complete_set(5)
        for mub_set in (composite, direct):
            bases = mub_set.bases
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    moduli = np.abs(overlap_matrix(bases[i], bases[j]))
                    assert np.abs(moduli - 1 / np.sqrt(5)).max() < 5e-10

    def test_nonzero_phase_parameters(self):
        mub_set = build_composite_set(2, 2, (1, 1))
        assert verify_set(mub_set, tol=1e-9).passed

    @pytest.mark.parametrize("p,e", [(2, 5), (7, 2)])
    def test_sizes_beyond_search_reach(self, p, e):
        mub_set = build_composite_set(p, e)
        assert len(mub_set.bases) == p**e + 1
        assert verify_set(mub_set, tol=1e-9).passed

    def test_a_params_validation(self):
        with pytest.raises(ValueError):
            build_composite_set(2, 2, (2, 0))


def per_class_set(p, e, a_params):
    """Reference: the partition, then one joint eigenbasis per class."""
    classes = partition_commuting_classes(p, e)
    return classes, MubSet(p**e, tuple(joint_eigenbasis(c, p, e, a_params) for c in classes))


class TestOneBroadcastBuild:
    @pytest.mark.parametrize(
        "p,e,a_params",
        [(p, e, a) for p, e in PRIME_POWERS_TO_16 for a in product(range(p), repeat=e)]
        + [
            (5, 2, (0, 0)), (5, 2, (3, 1)), (3, 3, (0, 0, 0)), (3, 3, (2, 0, 1)),
            (2, 5, (0,) * 5), (2, 5, (1, 0, 1, 1, 0)), (7, 2, (0, 0)), (7, 2, (6, 2)),
        ],
    )
    def test_matches_per_class_path(self, p, e, a_params):
        built = build_composite_set(p, e, a_params)
        classes, reference = per_class_set(p, e, a_params)
        assert np.array_equal(built.amps, reference.amps)
        assert np.array_equal(built.exponents, reference.exponents)
        assert np.array_equal(built.scales, reference.scales)
        assert [b.label for b in built.bases] == [b.label for b in reference.bases]
        for basis, cls in zip(built.bases, classes):
            assert basis.class_labels.shape == (p**e - 1, 2, e)
            assert basis.class_labels.tolist() == [[list(l.x), list(l.z)] for l in cls.members]
        assert verify_set(built) == verify_set(reference)

    def test_labels_and_forms_are_read_only(self):
        mub_set = build_composite_set(3, 2)
        _, reference = per_class_set(3, 2, (0, 0))
        arrays = [_spread_forms(3, 2), _class_labels(3, 2)]
        arrays += [b.class_labels for b in mub_set.bases + reference.bases]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # each built basis views its row of the cached labels
        assert _class_labels(3, 2) is _class_labels(3, 2)
        assert all(np.shares_memory(b.class_labels, _class_labels(3, 2)) for b in mub_set.bases)

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (5, 2)])
    def test_one_stacked_write_and_no_certificate(self, p, e, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("not on the composite path")

        for name in ("_certificate_residuals", "_deviations", "_restack"):
            monkeypatch.setattr(mub, name, refuse)
        monkeypatch.setattr(MubBasis, "_store", refuse)
        d = p**e
        mub_set = build_composite_set(p, e)
        rep = verify_set(mub_set)
        # every pair is decided on integers: no Gram, float or certificate
        assert rep.passed and rep.details["exact"] is True and rep.max_residual == 0.0
        assert rep.details["conjugates"] == rep.details["gram_pairs"] == 0
        assert rep.details["integer_pairs"] == (d + 1) * (d + 2) // 2
        assert mub_set.exponents.shape == (d + 1, d, d)
        for name in ("amps", "exponents", "scales"):
            assert not getattr(mub_set, name).flags.writeable
            assert all(np.shares_memory(getattr(b, name), getattr(mub_set, name))
                       for b in mub_set.bases)
