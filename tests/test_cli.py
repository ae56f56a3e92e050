import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubkit
from mubkit.cli import main, parse_args
from mubkit.composite import build_composite_set, partition_commuting_classes
from mubkit.serialize import dumps, format_float, mubset_from_doc, mubset_to_doc
from mubkit.mub import (
    build_complete_set,
    gauss_sum_expected_sq,
    gauss_sum_magnitude,
    verify_set,
)


class TestParseArgs:
    def test_verify(self, tmp_path):
        path = tmp_path / "f.json"
        config = parse_args(["verify", "--set", str(path), "--tol", "1e-8"])
        assert config.command == "verify"
        assert config.tol == 1e-8
        assert config.set_path == path

    def test_ffz(self):
        config = parse_args(["ffz", "--dim", "3", "--a", "0", "--max-m", "6"])
        assert config.command == "ffz"
        assert (config.dim, config.a, config.max_m) == (3, 0, 6)

    def test_su2(self):
        config = parse_args(["su2", "--two-j", "7", "--a", "3"])
        assert config.command == "su2"
        assert (config.two_j, config.a) == (7, 3)

    def test_set_flags(self):
        config = parse_args(["set", "--dim", "5", "--exact", "--format", "json"])
        assert isinstance(config, argparse.Namespace)
        assert config.dim == 5 and config.exact and config.format == "json"

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args([])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["frobnicate"])
        assert err.value.code == 2

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["set", "--dim", "3", "--tol", "-1"])
        assert err.value.code == 2

    def test_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("MUBKIT_TOL", "1e-7")
        assert parse_args(["set", "--dim", "3"]).tol == 1e-7
        monkeypatch.delenv("MUBKIT_TOL")
        assert parse_args(["set", "--dim", "3"]).tol == 1e-10

    @pytest.mark.parametrize("argv,env", [
        (["gen", "--dim", "2"], "abc"),
        (["su2", "--two-j", "2"], "nan"),
        (["set", "--dim", "5"], "inf"),
        (["set", "--dim", "5", "--tol", "nan"], None),
        (["set", "--dim", "5", "--tol", "inf"], None),
    ], ids=["env-abc", "env-nan", "env-inf", "flag-nan", "flag-inf"])
    def test_tolerance_must_be_finite_and_positive(self, argv, env, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("MUBKIT_TOL", raising=False)
        else:
            monkeypatch.setenv("MUBKIT_TOL", env)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be a finite positive number" in capsys.readouterr().err

    def test_internal_tol_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["set", "--dim", "3", "--internal-tol", "1e-9"])
        assert err.value.code == 2


class TestFloatFormatting:
    def test_17_digits(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_dumps_round_trips_through_stdlib(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "x"}}
        assert json.loads(dumps(doc)) == doc


class TestSetCommand:
    def test_prime_dim_exit_0(self, tmp_path, capsys):
        out = tmp_path / "set5.json"
        rc = main(["set", "--dim", "5", "--exact", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 5 and doc["exact"] is True
        assert len(doc["bases"]) == 6

    def test_non_prime_exit_2(self, capsys):
        rc = main(["set", "--dim", "6"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not prime" in err and "--force" in err

    def test_force_downgrades_to_exit_1(self, tmp_path, capsys):
        out = tmp_path / "set6.json"
        rc = main(["set", "--dim", "6", "--force", "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unbiasedness failed" in err
        assert "not complete by construction" in err
        assert json.loads(out.read_text())["dim"] == 6

    def test_csv_format(self, tmp_path):
        out = tmp_path / "set3.csv"
        assert main(["set", "--dim", "3", "--format", "csv", "--output", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 12  # 4 bases x 3 vectors
        assert all(len(r.split(",")) == 6 for r in rows)  # interleaved re/im


class TestVerifyCommand:
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_round_trip(self, dim, tmp_path, capsys):
        out = tmp_path / f"set{dim}.json"
        assert main(["set", "--dim", str(dim), "--exact", "--output", str(out)]) == 0
        rc = main(["verify", "--set", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["exact"] is True
        assert list(report)[:3] == ["dim", "n_bases", "complete"]
        assert report["complete"] is True

    def test_numeric_round_trip(self, tmp_path, capsys):
        out = tmp_path / "set7.json"
        assert main(["set", "--dim", "7", "--output", str(out)]) == 0
        assert main(["verify", "--set", str(out)]) == 0

    def test_one_basis_file_is_incomplete(self, tmp_path, capsys):
        out = tmp_path / "set5.json"
        assert main(["set", "--dim", "5", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["bases"] = doc["bases"][:1]
        out.write_text(json.dumps(doc))
        assert main(["verify", "--set", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["complete"] is False

    def test_forced_set_fails_verification(self, tmp_path, capsys):
        out = tmp_path / "set6.json"
        main(["set", "--dim", "6", "--force", "--output", str(out)])
        capsys.readouterr()
        rc = main(["verify", "--set", str(out)])
        assert rc == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        assert report["failing_pairs"]

    def test_forced_exact_set_fails_exactly(self, tmp_path, capsys):
        out = tmp_path / "set6.json"
        assert main(["set", "--dim", "6", "--force", "--exact", "--output", str(out)]) == 1
        capsys.readouterr()
        assert main(["verify", "--set", str(out)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True
        assert [(p["a"], p["b"]) for p in report["failing_pairs"]] == [
            (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)
        ]

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (["composite", "--p", "2", "--e", "2"],
             lambda b: b["class_labels"][0].update(x=[0]), "length 2"),
            (["composite", "--p", "2", "--e", "2"],
             lambda b: b["class_labels"][0].update(z=[2, 0]), "entries in 0..1"),
            (["composite", "--p", "2", "--e", "2"],
             lambda b: b["class_labels"][0].update(x=5), "lists of length 2"),
            (["set", "--dim", "6", "--force"],
             lambda b: b.update(class_labels=[{"x": [0], "z": [1]}]), "prime-power dim"),
        ],
    )
    def test_bad_class_labels_exit_2(self, argv, edit, message, tmp_path, capsys):
        path = tmp_path / "set.json"
        main(argv + ["--output", str(path)])
        doc = json.loads(path.read_text())
        edit(doc["bases"][1])
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--set", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["verify", "--set", str(tmp_path / "nope.json")])
        assert rc == 2

    @staticmethod
    def _verify_edited(tmp_path, edit, argv=("set", "--dim", "3", "--exact")):
        """Verify a set file (by default exact, d = 3) after edit(doc) has tampered with it."""
        path = tmp_path / "set.json"
        assert main([*argv, "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return main(["verify", "--set", str(path)])

    def test_wrong_mod_exit_2(self, tmp_path, capsys):
        def edit(doc):
            for basis in doc["bases"]:
                for vec in basis["vectors"]:
                    for amp in vec:
                        if amp is not None:
                            amp["mod"] = 12

        assert self._verify_edited(tmp_path, edit) == 2
        assert "mod = 2*dim = 6" in capsys.readouterr().err

    def test_mixed_scale_exit_2(self, tmp_path, capsys):
        def edit(doc):
            doc["bases"][1]["vectors"][0][0]["scale_sqrt_dim"] = 0

        assert self._verify_edited(tmp_path, edit) == 2
        assert "single scale_sqrt_dim" in capsys.readouterr().err

    def test_empty_bases_exit_2(self, tmp_path, capsys):
        def edit(doc):
            doc["bases"] = []

        assert self._verify_edited(tmp_path, edit) == 2
        assert "no bases" in capsys.readouterr().err

    def test_ragged_vector_exit_2(self, tmp_path, capsys):
        def edit(doc):
            doc["bases"][1]["vectors"][0].pop()

        assert self._verify_edited(tmp_path, edit) == 2
        assert "has 2 amplitudes, expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, edit, message",
        [
            (("composite", "--p", "2", "--e", "2"),
             lambda doc: doc["bases"][1]["vectors"][0].__setitem__(2, 5),
             "basis class:1 vector 0 amplitude 2 must be an [re, im] pair of finite numbers"),
            (("set", "--dim", "3"),
             lambda doc: doc["bases"][0]["vectors"][1].__setitem__(0, [10**400, 0]),
             "basis s vector 1 amplitude 0 must be an [re, im] pair of finite numbers"),
            (("set", "--dim", "3", "--exact"),
             lambda doc: doc["bases"][1]["vectors"][2].__setitem__(1, 5),
             "basis 0 vector 2 amplitude 1 must be null or an object"),
            (("set", "--dim", "3", "--exact"),
             lambda doc: [a.update(scale_sqrt_dim=2000) for a in doc["bases"][2]["vectors"][0]],
             "basis 1 vector 0 amplitude 0: scale_sqrt_dim must be 0 or 1"),
            (("set", "--dim", "3", "--exact"),
             lambda doc: [a.update(scale_sqrt_dim=2**70) for a in doc["bases"][2]["vectors"][0]],
             "basis 1 vector 0 amplitude 0: scale_sqrt_dim must be 0 or 1"),
            (("set", "--dim", "3"), lambda doc: doc.update(bases="s"), "bases must be a list"),
            (("set", "--dim", "3"),
             lambda doc: doc["bases"][2].update(vectors=7), "basis 1: vectors must be a list"),
            (("set", "--dim", "3", "--exact"), lambda doc: doc.update(dim=1),
             "dim must be an integer >= 2, got 1"),
            (("set", "--dim", "3"), lambda doc: doc.update(dim=1),
             "dim must be an integer >= 2, got 1"),
            (("set", "--dim", "3"), lambda doc: doc.pop("bases"),
             "error: bases is missing"),
            (("set", "--dim", "3", "--exact"), lambda doc: doc["bases"][1].pop("vectors"),
             "basis 0: vectors is missing"),
        ],
        ids=[
            "numeric-amplitude", "huge-amplitude", "exact-amplitude", "huge-scale", "int64-scale",
            "bases", "vectors", "exact-dim-1", "numeric-dim-1", "no-bases", "no-vectors",
        ],
    )
    def test_malformed_field_exit_2(self, argv, edit, message, tmp_path, capsys):
        assert self._verify_edited(tmp_path, edit, argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_vector_count_exit_2(self, extra, tmp_path, capsys):
        def edit(doc):
            vectors = doc["bases"][1]["vectors"]
            if extra < 0:
                vectors.pop()
            else:
                vectors.append(vectors[0])

        assert self._verify_edited(tmp_path, edit) == 2
        assert f"basis 0 has {3 + extra} vectors, expected 3" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["set", "--dim", "5", "--exact"],
            ["set", "--dim", "7"],
            ["sumrule", "--dim", "5"],
            ["composite", "--p", "2", "--e", "2"],
            ["gen", "--dim", "6", "--a", "4"],
            ["su2", "--two-j", "5"],
            ["ffz", "--dim", "3", "--a", "1"],
        ],
    )
    def test_byte_identical_runs(self, argv, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSumruleCommand:
    def test_d7_magnitudes(self, capsys):
        rc = main(["sumrule", "--dim", "7"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        magnitudes = {round(e["magnitude"], 9) for e in doc["entries"]}
        assert magnitudes == {
            round(v, 9) for v in (7.0, 0.0, np.sqrt(7))
        }

    def test_d5_entries_match_per_tuple_gauss_sums(self, capsys):
        assert main(["sumrule", "--dim", "5"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        indices = [(e["a"], e["b"], e["n_alpha"], e["n_beta"]) for e in entries]
        assert indices == list(itertools.product(range(5), repeat=4))
        for entry, idx in zip(entries, indices):
            abs2, numeric = gauss_sum_magnitude(5, *idx)
            expected = gauss_sum_expected_sq(5, *idx)
            assert entry["magnitude"] == numeric  # %.17g round-trips exactly
            assert entry["expected_sq"] == expected
            assert entry["exact_match"] is (abs2 == expected)

    def test_non_prime_rejected(self, capsys):
        assert main(["sumrule", "--dim", "6"]) == 2

    def test_csv(self, tmp_path):
        out = tmp_path / "sum.csv"
        assert main(["sumrule", "--dim", "3", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "a,b,n_alpha,n_beta,magnitude,expected_sq,exact_match"
        assert len(lines) == 1 + 3**4


class TestSu2Command:
    def test_single_a(self, capsys):
        assert main(["su2", "--two-j", "7", "--a", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["two_j"] == 7 and doc["a"] == 3 and doc["pass"]
        assert set(doc["residuals"]) == {"jz_jp", "jz_jm", "jp_jm", "casimir", "action"}

    def test_sweep_all_a(self, capsys):
        assert main(["su2", "--two-j", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 5 and doc["pass"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ffz", "--dim", "0"], "d must be >= 2, got 0"),
        (["ffz", "--dim", "-3"], "d must be >= 2, got -3"),
        (["ffz", "--dim", "3", "--max-m", "-1"], "max_m must be >= 0, got -1"),
        (["su2", "--two-j", "-1"], "two_j must be >= 1, got -1"),
    ],
)
def test_empty_sweep_refused(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


class TestFfzCommand:
    def test_single_a(self, capsys):
        assert main(["ffz", "--dim", "3", "--a", "0", "--max-m", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sign_convention"] == -1
        assert doc["m_range"] == [0, 6]
        assert doc["opposite_sign_residual_at_basic_pair"] > 0.1

    def test_all_a(self, capsys):
        assert main(["ffz", "--dim", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["reports"]) == 2 and doc["pass"]


class TestGenCommand:
    def test_json_matrix(self, capsys):
        assert main(["gen", "--dim", "3", "--a", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 3
        assert len(doc["entries"]) == 9
        assert len(doc["exact"]) == 9
        q = np.exp(2j * np.pi / 3)
        entry = doc["entries"][1]
        assert complex(entry[0], entry[1]) == pytest.approx(q, abs=1e-12)

    def test_clock_matrix_csv(self, capsys):
        assert main(["gen", "--dim", "2", "--matrix", "z", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "1,0,0,0"
        assert out[1] == "0,0,-1,0"


class TestCompositeCommand:
    def test_d4(self, capsys):
        assert main(["composite", "--p", "2", "--e", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 4
        assert len(doc["bases"]) == 5
        assert all(b["label"].startswith("class:") for b in doc["bases"])
        assert all("class_labels" in b for b in doc["bases"])

    def test_a_params_broadcast(self, capsys):
        assert main(["composite", "--p", "2", "--e", "2", "--a", "1"]) == 0

    def test_bad_a_list(self, capsys):
        assert main(["composite", "--p", "2", "--e", "2", "--a", "0,7"]) == 2

    def test_a_list_must_be_integers(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["composite", "--p", "2", "--e", "2", "--a", "x,1"])
        assert err.value.code == 2
        assert "--a: must be a comma-separated list of integers" in capsys.readouterr().err
        assert parse_args(["composite", "--p", "3", "--e", "2", "--a", "0,1"]).a_params == (0, 1)

    def test_class_labels_list_the_partition(self, capsys):
        assert main(["composite", "--p", "3", "--e", "2", "--a", "0,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [b["class_labels"] for b in doc["bases"]] == [
            [{"x": list(lbl.x), "z": list(lbl.z)} for lbl in cls.members]
            for cls in partition_commuting_classes(3, 2)
        ]

    def test_stricter_tol_is_honoured(self, capsys):
        # the d = 8 set deviates from unbiasedness by about 1e-16 in floats
        assert main(["composite", "--p", "2", "--e", "3", "--tol", "1e-30"]) == 1
        assert "failed unbiasedness" in capsys.readouterr().err


def test_cli_import_skips_scipy():
    src = str(Path(mubkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import mubkit.cli, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@st.composite
def serializable_sets(draw):
    """(set, exact): a prime, forced or composite set and a mode it supports."""
    kind = draw(st.sampled_from(["prime", "forced", "composite"]))
    if kind == "prime":
        mub_set = build_complete_set(draw(st.sampled_from([2, 3, 5, 7, 11])))
    elif kind == "forced":
        mub_set = build_complete_set(draw(st.sampled_from([4, 6, 8, 9])), force=True)
    else:
        p, e = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)]))
        a_params = draw(st.tuples(*[st.integers(0, p - 1)] * e))
        mub_set = build_composite_set(p, e, a_params)
    return mub_set, draw(st.booleans()) if mub_set.exact else False


def assert_same_class_labels(restored, original):
    """class_labels are int arrays (members, 2, e), or None, basis by basis."""
    for a, b in zip(original.bases, restored.bases, strict=True):
        assert (b.class_labels is None) == (a.class_labels is None)
        if a.class_labels is not None:
            assert b.class_labels.dtype == np.int64
            np.testing.assert_array_equal(b.class_labels, a.class_labels)


class TestSerializeRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(serializable_sets())
    def test_round_trip_keeps_every_field(self, case):
        original, exact = case
        restored = mubset_from_doc(json.loads(dumps(mubset_to_doc(original, exact=exact))))
        assert restored.dim == original.dim
        assert [b.label for b in restored.bases] == [b.label for b in original.bases]
        assert_same_class_labels(restored, original)
        for a, b in zip(original.bases, restored.bases):
            if exact:
                np.testing.assert_array_equal(b.exponents, a.exponents)
                np.testing.assert_array_equal(b.scales, a.scales)
                np.testing.assert_allclose(b.amps, a.amps, rtol=0, atol=1e-15)
            else:
                # a numeric document carries amplitudes only
                assert b.exponents is None
                np.testing.assert_array_equal(b.amps, a.amps)

    @pytest.mark.parametrize("exact", [True, False])
    def test_doc_round_trip(self, exact):
        original = build_complete_set(5)
        doc = mubset_to_doc(original, exact=exact)
        restored = mubset_from_doc(json.loads(dumps(doc)))
        assert restored.dim == 5
        assert [b.label for b in restored.bases] == ["s", 0, 1, 2, 3, 4]
        rep = verify_set(restored)
        assert rep.passed
        assert rep.details["exact"] is exact
        for basis_a, basis_b in zip(original.bases, restored.bases):
            assert np.abs(basis_a.as_array() - basis_b.as_array()).max() < 1e-15

    def test_class_labels_round_trip(self):
        original = build_composite_set(2, 2)
        restored = mubset_from_doc(json.loads(dumps(mubset_to_doc(original, exact=False))))
        assert_same_class_labels(restored, original)

    def test_exact_serialization_needs_exact_set(self):
        numeric_set = build_composite_set(2, 2)
        with pytest.raises(ValueError, match="exact"):
            mubset_to_doc(numeric_set, exact=True)
