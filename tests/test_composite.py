import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubkit import composite
from mubkit.composite import (
    ConstructionError,
    _check_labels,
    _class_labels,
    _spread_forms,
    _stabilizer_exponents,
    build_composite_set,
    build_w,
    commutation_soundness,
    degeneracy_report,
    joint_eigenbasis,
    partition_commuting_classes,
)
from mubkit import mub
from mubkit.cyclo import _points
from mubkit.mub import MubBasis, MubSet, build_basis, build_complete_set, overlap_matrix, verify_set
from mubkit.weyl import OperatorMatrix, build_v, build_z


PRIME_POWERS_TO_16 = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)
]


def symplectic_oracle(label_a, label_b, p):
    """Independent symplectic form implementation for cross-checks, labels (2, e)."""
    total = 0
    for xa, za, xb, zb in zip(*label_a, *label_b):
        total += int(xa) * int(zb) - int(za) * int(xb)
    return total % p


def unit_label(e, x, z):
    """The label (2, e) with x and z in the first slot only."""
    return [(x,) + (0,) * (e - 1), (z,) + (0,) * (e - 1)]


class TestLabels:
    def test_mod_reduction(self):
        assert _check_labels([(4, -1), (0, 5)], 3, 2, 2).tolist() == [[1, 2], [0, 2]]
        assert np.array_equal(build_w(3, 2, [(4, -1), (0, 5)], (0, 0)).exact,
                              build_w(3, 2, [(1, 2), (0, 2)], (0, 0)).exact)

    def test_label_of_another_e_refused(self):
        # an e = 1 label at e = 2 would broadcast to V (x) V; a class of them would not reshape
        with pytest.raises(ValueError, match=r"shape \(2, e\).*e = 2"):
            build_w(2, 2, [(1,), (0,)], (0, 0))
        with pytest.raises(ValueError, match=r"shape \(m, 2, e\).*e = 2"):
            joint_eigenbasis([[(1,), (0,)], [(0,), (1,)]], 2, 2, (0, 0), 0)
        with pytest.raises(ValueError, match=r"shape \(m, 2, e\)"):
            commutation_soundness([np.zeros((3, 2, 1), np.int64)], 2, 2, (0, 0))

    @pytest.mark.parametrize("label", [[(1.0, 0.0), (0.0, 0.0)], [(1, 1), (0, 0), (1, 1)],
                                       [[(1, 1), (0, 0)]], [(True, False), (False, False)]])
    def test_non_integer_or_misshapen_label_refused(self, label):
        with pytest.raises(ValueError, match="labels must be integers"):
            build_w(2, 2, label, (0, 0))

    def test_classes_as_array_or_sequence(self):
        classes = partition_commuting_classes(3, 2)
        assert not classes.flags.writeable and classes is _class_labels(3, 2)
        as_array = commutation_soundness(classes, 3, 2, (1, 2))
        as_list = commutation_soundness([c.tolist() for c in classes], 3, 2, (1, 2))
        assert as_array == as_list and as_array.passed


class TestBuildW:
    def test_double_flip(self):
        w = build_w(2, 2, [(1, 1), (0, 0)], (0, 0))
        flip = build_v(2, 0).entries
        assert np.allclose(w.entries, np.kron(flip, flip), atol=1e-14)

    def test_e1_reduces_to_generator(self):
        w = build_w(3, 1, [(1,), (0,)], (1,))
        assert np.abs(w.entries - build_v(3, 1).entries).max() < 1e-14

    def test_v_tensor_z_spectrum(self):
        w = build_w(2, 2, [(1, 0), (0, 1)], (0, 0))
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
        assert np.array_equal(build_w(p, e, [x, z], a_params).exact, expected.exact)

    def test_capacity_bound(self):
        with pytest.raises(ValueError, match="bound"):
            build_w(2, 8, [(1,) * 8, (0,) * 8], (0,) * 8)

    def test_bad_a_params(self):
        with pytest.raises(ValueError):
            build_w(2, 2, [(1, 0), (0, 0)], (0,))


def every_w(p, e):
    """Every labelled operator at d = p**e: each label (x, z) at each a_params."""
    slots = list(product(range(p), repeat=e))
    for a_params, x, z in product(slots, slots, slots):
        yield build_w(p, e, [x, z], a_params)


class TestDegeneracyReport:
    def test_generator_non_degenerate(self):
        rep = degeneracy_report(build_v(5, 2))
        assert not rep.degenerate
        assert rep.multiplicities == (1,) * 5

    def test_double_flip_degenerate(self):
        rep = degeneracy_report(build_w(2, 2, [(1, 1), (0, 0)], (0, 0)))
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

    def test_dense_and_non_permutation_input_refused(self):
        # a dense unitary and exact matrices with two entries in a row or a column
        hadamard = OperatorMatrix(2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        two_in_row = OperatorMatrix.from_exact([[0, 0], [-1, 0]])
        two_in_column = OperatorMatrix.from_exact([[0, -1], [0, -1]])
        for matrix in (hadamard, two_in_row, two_in_column, OperatorMatrix(3, build_z(3).entries)):
            with pytest.raises(ValueError, match="exact phased permutation"):
                degeneracy_report(matrix)
        # an identity whose annotation is the flip is refused when it is made
        with pytest.raises(ValueError, match="tau powers"):
            OperatorMatrix(2, np.eye(2), exact=[[-1, 0], [0, -1]])

    def test_listed_by_turn_from_one(self):
        # V_1 at d = 3 has the eigenvalues 1, omega and omega**2, each once
        rep = degeneracy_report(build_v(3, 1))
        assert rep.eigenvalues[0] == 1
        assert np.allclose(rep.eigenvalues, np.exp(2j * np.pi * np.arange(3) / 3), atol=1e-15)

    @pytest.mark.parametrize("d", [4, 8])
    def test_multiplicities_match_the_eigensolver(self, d):
        # every W at d = 4 and 8, and V_a and Z at d = 2..19, against np.linalg.eigvals
        p, e = 2, d.bit_length() - 1
        matrices = list(every_w(p, e))
        if d == 4:
            matrices += [build_v(n, a) for n in range(2, 20) for a in range(n)]
            matrices += [build_z(n) for n in range(2, 20)]
        for matrix in matrices:
            rep = degeneracy_report(matrix)
            eigs = np.linalg.eigvals(matrix.entries)
            turns = [np.angle(v) / (2 * np.pi) % 1 for v in rep.eigenvalues]
            assert turns == sorted(turns) and len(set(np.round(turns, 9))) == len(turns)
            found = [int((np.abs(eigs - v) < 1e-8).sum()) for v in rep.eigenvalues]
            assert list(rep.multiplicities) == found and sum(found) == matrix.dim
            assert rep.degenerate is (max(found) > 1)


class TestPartition:
    def test_p2_e2_counts(self):
        classes = partition_commuting_classes(2, 2)
        assert classes.shape == (5, 3, 2, 2)
        seen = set()
        for c in classes:
            for lbl in c:
                key = tuple(map(tuple, lbl.tolist()))
                assert key not in seen
                seen.add(key)
        assert len(seen) == 15

    def test_p3_e2_counts(self):
        classes = partition_commuting_classes(3, 2)
        assert classes.shape == (10, 8, 2, 2)
        covered = {tuple(lbl.ravel().tolist()) for c in classes for lbl in c}
        assert len(covered) == 80

    def test_p3_e1_lines(self):
        classes = partition_commuting_classes(3, 1)
        assert len(classes) == 4
        as_sets = [{(x, z) for [x], [z] in c.tolist()} for c in classes]
        assert {(0, 1), (0, 2)} in as_sets  # clock-only line
        assert {(1, 0), (2, 0)} in as_sets  # shift-only line
        mixed = [s for s in as_sets if all(x and z for x, z in s)]
        assert len(mixed) == 2

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (2, 3)])
    def test_classes_commute(self, p, e):
        classes = partition_commuting_classes(p, e)
        for c in classes:
            for i, a in enumerate(c):
                for b in c[i + 1 :]:
                    assert symplectic_oracle(a, b, p) == 0

    def test_first_class_is_diagonal(self):
        for p, e in [(2, 2), (3, 2), (5, 1)]:
            classes = partition_commuting_classes(p, e)
            assert not classes[0][:, 0].any()
            assert all(members[:, 0].any() for members in classes[1:])

    def test_spread_order(self):
        # all-clock class, then one graph {(x, g x)} per g in increasing order
        classes = partition_commuting_classes(5, 1)
        for g, members in enumerate(classes[1:]):
            assert members.tolist() == [[[x], [g * x % 5]] for x in range(1, 5)]
        assert not partition_commuting_classes(2, 3)[1][:, 1].any()

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
        bad = np.array([classes[1][0], unit_label(e, 1, 1), unit_label(e, 0, 1)])
        rep = commutation_soundness([*classes, bad], p, e, a_params)
        assert not rep.passed and not rep.details["symplectic_forms_vanish"]
        # the dense commutators of the bad class are the reference
        ws = [build_w(p, e, lbl, a_params).entries for lbl in bad]
        dense = max(np.abs(a @ b - b @ a).max() for a, b in combinations(ws, 2))
        assert rep.max_residual == pytest.approx(dense, abs=1e-12)
        assert rep.max_residual > 0.1  # |1 - q| = 2 sin(pi/p)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PRIME_POWERS_TO_16), st.data())
    def test_verdict_matches_dense_products(self, pe, data):
        p, e = pe
        slots = st.tuples(*[st.integers(0, p - 1)] * e)
        a_params = data.draw(slots)
        # part of one commuting class, with or without random labels added
        members = partition_commuting_classes(p, e)[data.draw(st.integers(0, p**e))]
        picked = data.draw(st.lists(st.integers(0, p**e - 2), min_size=1, max_size=4, unique=True))
        members = members[picked].tolist()
        members += data.draw(st.lists(st.tuples(slots, slots), max_size=2))
        rep = commutation_soundness([members], p, e, a_params)
        ws = [build_w(p, e, lbl, a_params).entries for lbl in members]
        dense = max((np.abs(a @ b - b @ a).max() for a, b in combinations(ws, 2)), default=0.0)
        assert rep.passed is bool(dense < 1e-9)
        assert rep.max_residual == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("plant", ["non_affine_row", "slope_not_multiple"])
    def test_planted_rows_fail(self, monkeypatch, plant):
        # every label's rows changed at d = 9, one unit entry per row kept, so that the
        # shift and slope read from rows 0, 1 and 3 still obey the commutation law:
        # row 4 = (1, 1) times q, or tau**(2 x.r), a slope that is no multiple of 2d/p = 6
        original = composite._label_rows

        def planted(p, a_params, xs, zs):
            rows = original(p, a_params, xs, zs)
            if plant == "non_affine_row":
                rows.exp[..., 4] += 2
            else:
                rows.exp[...] += 2 * np.asarray(xs) @ _points(p, 2).T
            rows.exp[...] %= 2 * rows.dim
            return rows

        classes = partition_commuting_classes(3, 2)
        monkeypatch.setattr(composite, "_label_rows", planted)
        assert not commutation_soundness(classes, 3, 2, (0, 0)).passed
        # and the planted operators do fail to commute
        ws = [planted(3, (0, 0), x, z).dense() for x, z in classes[2]]
        assert max(np.abs(a @ b - b @ a).max() for a, b in combinations(ws, 2)) > 0.1

    def test_non_prime_p_rejected(self):
        with pytest.raises(ValueError):
            partition_commuting_classes(4, 1)


class TestJointEigenbasis:
    def test_shift_class_gives_tensor_fourier(self):
        classes = partition_commuting_classes(2, 2)
        cid = next(c for c, members in enumerate(classes) if not members[:, 1].any())
        basis = joint_eigenbasis(classes[cid], 2, 2, (0, 0), cid)
        assert basis.label == f"class:{cid}"
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
        for cid, members in enumerate(classes[1:], 1):
            basis = joint_eigenbasis(members, 3, 1, (0,), cid)
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
        with pytest.raises(ValueError, match="unresolved"):
            joint_eigenbasis([[(1, 1), (0, 0)]], 2, 2, (0, 0), 99)

    def test_non_commuting_class_refused(self):
        with pytest.raises(ValueError, match="class 98: members 0 and 1 fail to commute"):
            joint_eigenbasis([[(1,), (0,)], [(0,), (1,)]], 2, 1, (0,), 98)

    def test_non_graph_class_refused(self):
        # commuting and complete, but neither all-clock nor a graph over x
        mixed = [[(x, 0), (0, z)] for x, z in [(0, 1), (1, 0), (1, 1)]]
        with pytest.raises(ValueError, match="unresolved"):
            joint_eigenbasis(mixed, 2, 2, (0, 0), 97)

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
        for cid, members in enumerate(partition_commuting_classes(p, e)):
            rows = joint_eigenbasis(members, p, e, a_params, cid).as_array()
            for lbl in members:
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

    @pytest.mark.parametrize("a_params", [(1.5, 0), ("1", 0), (1.0, 0)])
    def test_non_integer_a_params_refused(self, a_params):
        # int() would have read each of these as (1, 0)
        with pytest.raises(ValueError, match="integer entries"):
            build_composite_set(2, 2, a_params)
        with pytest.raises(ValueError, match="integer entries"):
            build_w(2, 2, [(1, 0), (0, 0)], a_params)

    def test_numpy_integer_a_params_accepted(self):
        built = build_composite_set(3, 2, np.array([1, 2]))
        assert np.array_equal(built.exponents, build_composite_set(3, 2, (1, 2)).exponents)


def per_class_set(p, e, a_params):
    """Reference: the partition, then one joint eigenbasis per class."""
    classes = partition_commuting_classes(p, e)
    bases = (joint_eigenbasis(members, p, e, a_params, cid) for cid, members in enumerate(classes))
    return classes, MubSet(p**e, tuple(bases))


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
        for basis, members in zip(built.bases, classes):
            assert basis.class_labels.shape == (p**e - 1, 2, e)
            assert np.array_equal(basis.class_labels, members)
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

        for name in ("_certificate_residuals", "_deviations", "_amplitudes"):
            monkeypatch.setattr(mub, name, refuse)
        monkeypatch.setattr(MubBasis, "_store", refuse)
        d = p**e
        mub_set = build_composite_set(p, e)
        rep = verify_set(mub_set)
        # the amps and the bases are derived only when read, after the verdict
        monkeypatch.undo()
        # every pair is decided on integers: no Gram, float or certificate
        assert rep.passed and rep.details["exact"] is True and rep.max_residual == 0.0
        assert rep.details["conjugates"] == rep.details["gram_pairs"] == 0
        assert rep.details["integer_pairs"] == (d + 1) * (d + 2) // 2
        assert mub_set.exponents.shape == (d + 1, d, d)
        for name in ("amps", "exponents", "scales"):
            assert not getattr(mub_set, name).flags.writeable
            assert all(np.shares_memory(getattr(b, name), getattr(mub_set, name))
                       for b in mub_set.bases)


#: Every (p, e) with p in {2, 3, 5, 7} and d = p**e <= 49.
PRIME_POWERS_TO_49 = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
                      (5, 1), (5, 2), (7, 1), (7, 2)]


@st.composite
def stabilizer_forms(draw):
    """(p, e, S, a_params): a random symmetric S over F_p**e and random phase parameters."""
    p, e = draw(st.sampled_from(PRIME_POWERS_TO_49))
    entries = st.lists(st.integers(0, p - 1), min_size=e * e, max_size=e * e)
    upper = np.triu(np.array(draw(entries), dtype=np.int64).reshape(e, e))
    a_params = tuple(draw(st.lists(st.integers(0, p - 1), min_size=e, max_size=e)))
    return p, e, upper + np.triu(upper, 1).T, a_params


class TestWriterAndRecognizer:
    @settings(max_examples=150, deadline=None)
    @given(stabilizer_forms())
    def test_recognizer_reads_the_written_form(self, case):
        # the field-kind recognizer (code 5; the cyclic one, code 4, at e = 1) reads back
        # the form A = -(S + diag(a)) that the composite writer put into the phases
        p, e, form, a_params = case
        d = p**e
        exps = _stabilizer_exponents(p, e, form[None], a_params)
        code, keys = mub._basis_codes(exps, np.ones((1, d), np.int64))
        written = -(form + np.diag(a_params))
        points = product(range(p), repeat=e)
        slots = [sum(int(v) * p ** (e - 1 - k) for k, v in enumerate(written @ h % p))
                 for h in points]
        assert code[0] == (4 if e == 1 else 5)
        assert keys[0].tolist() == slots

    def test_one_writer_writes_the_cyclic_bases(self):
        # eigenbasis a of the phased shift is the quadratic basis over Z_d of form A = -a
        # mod d with w_n(1) = (d-3)a - 2n and slot-0 exponent (d-1)(a+2n); the writer,
        # given the rows' points as _form_keys takes them from w_n(1), writes it exactly
        for d in range(2, 129):
            a, n = np.arange(d)[:, None], np.arange(d)
            form = -a % d
            rows = ((d - 3) * a - 2 * n - (d + 1) * form) % (2 * d) // 2
            slot0 = ((d - 1) * (a + 2 * n))[..., None]
            written = mub._form_exponents(form[:, :, None], rows, slot0, *mub._form_layout(d, d, 1))
            assert np.array_equal(written, mub._eigen_exponents(d, a, n)), d

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 1), (2, 3), (2, 7), (4, 2), (3, 2), (5, 1)]), st.data())
    def test_remainder_is_taken_from_either_sign(self, split, data):
        # at 2d a power of two the writer keeps the low bits, elsewhere it floor-divides:
        # both give the remainder in 0..2d-1, negative sums included
        b, e = split
        d, m = b**e, 2
        layout = mub._form_layout(d, b, e)
        _, _, _, linear, squares = layout[:5]

        def draw(lo, hi, size):
            return np.array(data.draw(st.lists(st.integers(lo, hi), min_size=size,
                                               max_size=size)), np.int64)

        forms = draw(-50, 50, m * e * e).reshape(m, e, e)
        forms = forms + forms.transpose(0, 2, 1)
        slot0 = draw(-10**6, 10**6, m * d).reshape(m, d, 1)
        sums = (forms.reshape(m, -1) @ squares)[:, None] + slot0 + linear
        written = mub._form_exponents(forms, None, slot0, *layout)
        np.testing.assert_array_equal(written, np.mod(sums, 2 * d))


class TestFailedConstruction:
    @pytest.mark.parametrize("p,e,twice", [(2, 2, 1), (3, 2, 4), (2, 3, 7), (5, 2, 20)])
    def test_first_biased_pair_is_named(self, p, e, twice, monkeypatch):
        # graph basis twice (class twice + 1) is written as a copy of the one before it: a
        # quadratic pair whose radical is all of F_p**e, the first pair that fails
        written = []

        def copy_one_basis(*args):
            exps = _stabilizer_exponents(*args)
            exps[twice] = exps[twice - 1]
            written.append(exps)
            return exps

        monkeypatch.setattr(composite, "_stabilizer_exponents", copy_one_basis)
        # a stored set would be served without a write, so the planted write is built and checked
        composite._STACK_STORE.clear()
        d = p**e
        with pytest.raises(ConstructionError) as failure:
            build_composite_set(p, e)
        pair = (f"class:{twice}", f"class:{twice + 1}")
        residual = max(1, math.sqrt(d) - 1) / math.sqrt(d)
        assert failure.value.pair == pair
        assert str(failure.value) == (
            f"composite construction failed unbiasedness for pair ({pair[0]}, {pair[1]}) "
            f"with residual {residual:.3e}"
        )
        # as verify_set reports the planted set
        bases = [MubBasis.from_arrays(d, "class:0", exponents=np.eye(d, dtype=np.int64) - 1,
                                      scales=0)]
        bases += [MubBasis.from_arrays(d, f"class:{g + 1}", exponents=rows)
                  for g, rows in enumerate(written[0])]
        first = verify_set(MubSet(d, tuple(bases))).details["failing_pairs"][0]
        assert (first["a"], first["b"]) == pair
        assert f"{first['max_residual']:.3e}" == f"{residual:.3e}"
