import argparse
import hashlib
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
from mubkit import serialize
from mubkit.cli import main, parse_args
from mubkit.composite import build_composite_set, partition_commuting_classes
from mubkit.serialize import dumps, format_float, mubset_from_doc, mubset_to_doc
from mubkit.mub import (
    MubBasis,
    MubSet,
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
            parse_args(["verify", "--set", "f.json", "--tol", "-1"])
        assert err.value.code == 2

    def test_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("MUBKIT_TOL", "1e-7")
        assert parse_args(["verify", "--set", "f.json"]).tol == 1e-7
        # --tol wins, and the variable is then not read, even when it is not a number
        assert parse_args(["verify", "--set", "f.json", "--tol", "1e-8"]).tol == 1e-8
        monkeypatch.setenv("MUBKIT_TOL", "abc")
        assert parse_args(["verify", "--set", "f.json", "--tol", "1e-8"]).tol == 1e-8
        monkeypatch.delenv("MUBKIT_TOL")
        assert parse_args(["verify", "--set", "f.json"]).tol == 1e-10

    @pytest.mark.parametrize("env,flag", [
        ("abc", None), ("nan", None), ("inf", None), ("0", None), ("-1", None),
        (None, "abc"), (None, "nan"), (None, "inf"), (None, "0"),
    ], ids=["env-abc", "env-nan", "env-inf", "env-0", "env--1",
            "flag-abc", "flag-nan", "flag-inf", "flag-0"])
    def test_tolerance_must_be_finite_and_positive(self, env, flag, monkeypatch, capsys):
        if env is None:
            monkeypatch.delenv("MUBKIT_TOL", raising=False)
        else:
            monkeypatch.setenv("MUBKIT_TOL", env)
        argv = ["verify", "--set", "f.json"] + ([] if flag is None else ["--tol", flag])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "--dim", "2"], ["set", "--dim", "3"], ["sumrule", "--dim", "3"],
        ["su2", "--two-j", "2"], ["ffz", "--dim", "2"], ["composite", "--p", "2", "--e", "2"],
    ], ids=lambda argv: argv[0])
    def test_only_verify_takes_a_tolerance(self, argv, monkeypatch, capsys):
        # these commands decide on integers: --tol is an unknown flag, and $MUBKIT_TOL is not read
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tol", "1e-9"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        monkeypatch.delenv("MUBKIT_TOL", raising=False)
        expected = main(argv), capsys.readouterr().out
        monkeypatch.setenv("MUBKIT_TOL", "abc")
        assert (main(argv), capsys.readouterr().out) == expected

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


def reference_emit(obj, pieces):
    """Reference serializer, one isinstance chain per value: dumps must give the same bytes."""
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(",")
            reference_emit(item, pieces)
        pieces.append("]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            reference_emit(value, pieces)
        pieces.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_dumps(obj) -> str:
    pieces = []
    reference_emit(obj, pieces)
    return "".join(pieces)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    finite_floats,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    finite_floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\x00\x1f", "caf\u00e9", "\u2603\U0001f600"]),
)
documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers()), inner, max_size=5),
    ),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_same_bytes_as_reference(self, doc):
        assert dumps(doc) == reference_dumps(doc)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.dictionaries(st.sampled_from(["a", "1", 1, True, 1.0]), json_scalars),
                    max_size=8))
    def test_repeated_keys_across_rows(self, rows):
        # the key memo must not take True or 1.0 for the equal key 1
        assert dumps(rows) == reference_dumps(rows)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan"), np.float32("-inf")])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1, v], lambda v: {"k": (v,)}])
    def test_non_finite_raises_value_error(self, bad, wrap):
        with pytest.raises(ValueError, match="non-finite"):
            dumps(wrap(bad))

    @pytest.mark.parametrize("bad", [{1, 2}, 1j, np.bool_(True), np.complex128(1), object()])
    @pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [v], lambda v: {"k": [0.5, v]}])
    def test_other_types_raise_type_error(self, bad, wrap):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps(wrap(bad))


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
        assert "forced non-prime family: its bases need not be mutually unbiased" in err
        assert json.loads(out.read_text())["dim"] == 6

    def test_csv_format(self, tmp_path):
        out = tmp_path / "set3.csv"
        assert main(["set", "--dim", "3", "--format", "csv", "--output", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 12  # 4 bases x 3 vectors
        assert all(len(r.split(",")) == 6 for r in rows)  # interleaved re/im

    def test_exact_csv_refused_before_building(self, tmp_path, capsys, monkeypatch):
        # csv holds float amplitudes only, so --exact cannot be honoured there
        def refuse(*args, **kwargs):
            raise AssertionError("the set is built only for an output that can hold it")

        monkeypatch.setattr(mubkit.mub, "build_complete_set", refuse)
        out = tmp_path / "set3.csv"
        argv = ["set", "--dim", "3", "--exact", "--format", "csv", "--output", str(out)]
        assert main(argv) == 2
        assert "--exact needs --format json" in capsys.readouterr().err
        assert not out.exists()

    def test_dim_past_max_dim_refused_before_building(self, capsys, monkeypatch):
        # --dim 1000 would ask for about 24 GB of exponents and amps
        def refuse(*args, **kwargs):
            raise AssertionError("no set is built past MAX_DIM")

        monkeypatch.setattr(mubkit.mub, "_eigen_exponents", refuse)
        monkeypatch.setattr(mubkit.mub, "_complete_stacks", refuse)
        monkeypatch.setattr(mubkit.mub, "_prime_set", refuse)
        monkeypatch.setattr(mubkit.mub.MubSet, "_of_stacks", refuse)
        for argv in (["set", "--dim", "129"], ["set", "--dim", "1000", "--force"]):
            assert main(argv) == 2
            assert "exceeds the supported bound 128" in capsys.readouterr().err
        assert mubkit.composite.MAX_DIM is mubkit.mub.MAX_DIM == 128


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
        # every pair is decided on integers, with the exact deviation 0.0
        assert report["max_residual"] == 0.0
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
        # radicals of size 2 or 3 give overlaps of moduli 0 and sqrt(r/6): deviation 1/sqrt(6)
        assert {p["max_residual"] for p in report["failing_pairs"]} == {1 / 6**0.5}
        assert report["max_residual"] == 1 / 6**0.5

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

    @pytest.mark.parametrize("shape", ["{}", '{"dim": 3, "exact": false, "bases": {}}'])
    def test_nesting_past_the_decoder_exit_2(self, shape, tmp_path, capsys):
        # 200 000 nested arrays, alone or under "bases", overflow the JSON decoder's recursion
        path = tmp_path / "deep.json"
        path.write_text(shape.replace("{}", "[" * 200_000 + "]" * 200_000, 1))
        assert main(["verify", "--set", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and "nested deeper" in captured.err and not captured.out

    @pytest.mark.parametrize("label", ["²", "٣"])
    def test_non_ascii_digit_labels_stay_strings(self, label, tmp_path, capsys):
        # int() refuses "²" and reads "٣" as 3, basis 3's label: neither is an int label
        def edit(doc):
            doc["bases"][0]["label"] = label
            assert [b.label for b in mubset_from_doc(doc).bases] == [label, 0, 1, 2, 3, 4]

        assert self._verify_edited(tmp_path, edit, ("set", "--dim", "5", "--exact")) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["pass"] is True

    def test_labels_round_trip(self):
        for text in ["0", "12", "-3", "07", "-0", "+1", " 1", "1_0", "²", "٣", "s", "class:0"]:
            label = serialize._parse_label(text)
            assert str(label) == text
            assert isinstance(label, int) is (text in ("0", "12", "-3"))

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

    @pytest.mark.parametrize("amplitude", [1e10, 1e154, 1e160, 1e200, 1e308])
    def test_huge_finite_amplitude(self, amplitude, tmp_path):
        # from about 1e154 an amplitude's square overflows: such a vector is refused
        # at read, so no overlap overflows and no numpy warning reaches stderr
        path = tmp_path / "set.json"
        assert main(["set", "--dim", "3", "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["bases"][1]["vectors"][0][0] = [amplitude, 0.0]
        path.write_text(json.dumps(doc))
        code = "import sys; from mubkit.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = _python(code, "verify", "--set", str(path), check=False)
        assert "Warning" not in proc.stderr
        if amplitude < 1e155:
            assert (proc.returncode, proc.stderr) == (1, "")
            assert json.loads(proc.stdout)["failing_pairs"]
        else:
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                "error: basis 0 vector 0 amplitude 0: the vector's squared norm overflows a float\n"
            )

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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["composite", "--p", "2", "--e", "2"],
             "e2610f90e914929cb58405966aa54824c4e8d88e8d5ba13acdbfe8c0e1bfb134"),
            (["composite", "--p", "3", "--e", "2", "--a", "0,1"],
             "3e8d46eac03fe62aedd1fc99d543f08b3ecd2916e73aace05f0e44a8843d95a5"),
            (["composite", "--p", "2", "--e", "3", "--a", "1,0,1"],
             "d52991d55c98565da80298704a25a2460e9ffdcbc18f2da85e4286397a5fab24"),
            (["composite", "--p", "5", "--e", "2", "--a", "3,1", "--format", "csv"],
             "f7d24accfc675ef1e1efd6243247226945c2be1834bf91e9c4f0ebc5461e4c45"),
            (["set", "--dim", "5", "--exact"],
             "37b999e5facbdc9ab9b8dbe16938e7d1173747713fba6d1bcf9b4b78dd7312ae"),
            (["set", "--dim", "13", "--exact"],
             "94808be4758843d13bd369b2ebebfbcfa88b6b9a0639f06f935d35a2b2cd3bb0"),
            (["set", "--dim", "19"],
             "ec3344178a6b466a76b0d56c43bd1bfdea6ea3afaa1f6968a1cf28a0e0b6a2df"),
            # reference_sumrule calls gauss_sum_magnitude itself, so only these pin its bytes
            (["sumrule", "--dim", "7"],
             "39c8c97eb7f68b89bf547c5d3354f9018c83e8aa7ecfea020c1fedd008b05e97"),
            (["sumrule", "--dim", "11", "--format", "csv"],
             "4e252618531ddb4383fe795f1731358f6e923708865c28232d49a0c23f9b6756"),
        ],
    )
    def test_output_bytes_are_pinned(self, argv, digest, capsys):
        # composite sets are exact now, but composite still writes their float amplitudes
        # (the document says "exact": false), byte for byte as when the set held floats
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    def test_ladder_rows_composed_once_per_a(self, monkeypatch, capsys):
        # the sweep reports what check_su2 and check_ladder_action report at each a
        two_j = 6
        reference = [(mubkit.su2.check_su2(two_j, a), mubkit.su2.check_ladder_action(two_j, a))
                     for a in range(two_j + 1)]
        composed = []
        ladder_rows = mubkit.su2._ladder_rows
        monkeypatch.setattr(mubkit.su2, "_ladder_rows",
                            lambda *args: composed.append(args) or ladder_rows(*args))
        assert [mubkit.su2._check_su2_and_action(two_j, a)
                for a in range(two_j + 1)] == reference
        assert composed == [(two_j, a) for a in range(two_j + 1)]
        composed.clear()
        assert main(["su2", "--two-j", str(two_j)]) == 0
        assert composed == [(two_j, a) for a in range(two_j + 1)]
        for report, (commutators, action) in zip(json.loads(capsys.readouterr().out)["reports"],
                                                 reference):
            residuals = commutators.details["residuals"]
            assert report["residuals"] == {
                **{k: residuals[k] for k in ("jz_jp", "jz_jm", "jp_jm", "casimir")},
                "action": max(residuals["jz_action"], action.max_residual)}
            assert report["pass"] is (commutators.passed and action.passed)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ffz", "--dim", "0"], "d must be >= 2, got 0"),
        (["ffz", "--dim", "-3"], "d must be >= 2, got -3"),
        (["ffz", "--dim", "3", "--max-m", "-1"], "max_m must be >= 0, got -1"),
        (["su2", "--two-j", "-1"], "two_j must be >= 1, got -1"),
        (["ffz", "--dim", "3", "--max-m", "100000"], "more than FFZ_MAX_PAIRS = 33554432 pairs"),
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

    def test_tol_flag_refused(self, capsys):
        # the verdict is exact, so ffz takes no tolerance
        with pytest.raises(SystemExit) as err:
            main(["ffz", "--dim", "7", "--a", "3", "--tol", "1e-15"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol 1e-15" in capsys.readouterr().err


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
            [{"x": x, "z": z} for x, z in members]
            for members in partition_commuting_classes(3, 2).tolist()
        ]

    def test_stricter_tol_is_honoured(self, tmp_path, capsys):
        # the d = 8 set is exact, so composite decides it on integers without a tolerance;
        # its document holds floats, which deviate from unbiasedness by about 1e-16
        out = tmp_path / "set8.json"
        assert main(["composite", "--p", "2", "--e", "3", "--output", str(out)]) == 0
        assert main(["verify", "--set", str(out), "--tol", "1e-30"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False and report["exact"] is False
        assert 0 < report["max_residual"] < 1e-15

    def test_failed_construction_exits_1(self, capsys, monkeypatch):
        # build_composite_set verifies the set it built and names a failing pair: here graph
        # class 2 is written as a copy of class 1, a quadratic pair with radical 4 = d
        stabilizer_exponents = mubkit.composite._stabilizer_exponents

        def planted(*args):
            exps = stabilizer_exponents(*args)
            exps[1] = exps[0]
            return exps

        monkeypatch.setattr(mubkit.composite, "_stabilizer_exponents", planted)
        # a stored set would be served without a write, so the planted write is built and checked
        mubkit.composite._STACK_STORE.clear()
        assert main(["composite", "--p", "2", "--e", "2"]) == 1
        err = capsys.readouterr().err
        assert "failed unbiasedness for pair (class:1, class:2) with residual 5.000e-01" in err


def _python(code: str, *args: str, cwd=None, check=True) -> subprocess.CompletedProcess:
    """A fresh interpreter running code, with this checkout's mubkit importable."""
    src = str(Path(mubkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=check)


def test_cli_import_skips_scipy():
    code = "import mubkit.cli, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    _python(code)


#: `python -m mubkit.cli ARGV...` as runpy runs it, then the loaded modules on stderr.
RUN_CLI_AND_LIST_MODULES = """
import json, runpy, sys
sys.argv[0] = "mubkit"
try:
    runpy.run_module("mubkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in ("mubkit", "scipy"))]),
      file=sys.stderr)
"""

#: The modules every subcommand loads: the package and cli's own imports.
CLI_BASE_MODULES = ["mubkit", "mubkit.cyclo", "mubkit.report", "mubkit.serialize"]


@pytest.mark.parametrize(
    "argv, extra, exit_code",
    [
        (["gen", "--dim", "2"], ["mubkit.weyl"], 0),
        (["ffz", "--dim", "3"], ["mubkit.weyl"], 0),
        (["su2", "--two-j", "2"], ["mubkit.su2", "mubkit.weyl"], 0),
        # set, verify, sumrule and composite never load weyl
        (["set", "--dim", "3", "--output", "s3.json"], ["mubkit.mub"], 0),
        (["verify", "--set", "s3.json"], ["mubkit.mub"], 0),
        (["sumrule", "--dim", "3"], ["mubkit.mub"], 0),
        (["composite", "--p", "2", "--e", "2"], ["mubkit.composite", "mubkit.mub"], 0),
        # a composite run that fails (p = 4 is not prime) exits from _run_composite
        (["composite", "--p", "4", "--e", "2"], ["mubkit.composite", "mubkit.mub"], 2),
    ],
    ids=["gen", "ffz", "su2", "set", "verify", "sumrule", "composite", "composite-fails"],
)
def test_each_subcommand_loads_only_its_modules(argv, extra, exit_code, tmp_path):
    if argv[0] == "verify":
        assert main(["set", "--dim", "3", "--output", str(tmp_path / "s3.json")]) == 0
    proc = _python(RUN_CLI_AND_LIST_MODULES, *argv, cwd=tmp_path)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    assert code == exit_code
    assert modules == sorted(CLI_BASE_MODULES + extra)


#: The package's public names, each resolved on first access.
PUBLIC_NAMES = [
    "AngularParams",
    "ConstructionError",
    "CyclotomicSum",
    "DEFAULT_TOL",
    "DegeneracyReport",
    "MubBasis",
    "MubSet",
    "MubVector",
    "OperatorMatrix",
    "PhaseExponent",
    "VerificationReport",
    "WedgeIndex",
    "build_basis",
    "build_complete_set",
    "build_composite_set",
    "build_h",
    "build_ladder",
    "build_mub_vector",
    "build_t",
    "build_v",
    "build_va_operator",
    "build_w",
    "build_z",
    "character_vector",
    "check_ladder_action",
    "check_su2",
    "degeneracy_report",
    "eigenvalue_exponent",
    "ffz_commutator_residual",
    "ffz_sweep",
    "gauss_sum_magnitude",
    "is_prime",
    "joint_eigenbasis",
    "overlap_matrix",
    "partition_commuting_classes",
    "q_commutation_residual",
    "select_ffz_sign_convention",
    "spherical_basis",
    "trace_inner_exact",
    "verify_set",
    "verify_unbiased",
]


def test_package_import_is_lazy_and_star_import_binds_all():
    assert mubkit.__all__ == PUBLIC_NAMES
    code = """
import sys
import mubkit
assert [m for m in sys.modules if m.startswith("mubkit")] == ["mubkit"]
ns = {}
exec("from mubkit import *", ns)
assert sorted(k for k in ns if k != "__builtins__") == sorted(mubkit.__all__)
for name in mubkit.__all__:
    # bound into the package, so later lookups skip __getattr__
    assert vars(mubkit)[name] is ns[name] is getattr(sys.modules["mubkit." + mubkit._MODULE_OF[name]], name)
assert set(mubkit.__all__) <= set(dir(mubkit))
try:
    mubkit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown names must raise AttributeError")
"""
    _python(code)


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
        # a composite set is exact, so it may be written either way; the set read back
        # from its float document is not
        exact_set = build_composite_set(2, 2)
        restored = mubset_from_doc(json.loads(dumps(mubset_to_doc(exact_set, exact=True))))
        assert restored.exact and verify_set(restored).details["exact"] is True
        numeric_set = mubset_from_doc(json.loads(dumps(mubset_to_doc(exact_set, exact=False))))
        assert not numeric_set.exact
        with pytest.raises(ValueError, match="exact"):
            mubset_to_doc(numeric_set, exact=True)


def reference_sumrule(d: int, csv: bool) -> str:
    """The sumrule document built as one dict per row and rendered whole."""
    entries, all_ok = [], True
    for a, b, n_alpha, n_beta in itertools.product(range(d), repeat=4):
        abs2, numeric = gauss_sum_magnitude(d, a, b, n_alpha, n_beta)
        expected = gauss_sum_expected_sq(d, a, b, n_alpha, n_beta)
        ok = abs2 == expected
        all_ok &= ok
        entries.append({"a": a, "b": b, "n_alpha": n_alpha, "n_beta": n_beta,
                        "magnitude": numeric, "expected_sq": expected, "exact_match": ok})
    if not csv:
        return dumps({"dim": d, "entries": entries, "pass": all_ok}) + "\n"
    lines = ["a,b,n_alpha,n_beta,magnitude,expected_sq,exact_match"]
    lines += [",".join([*(str(row[k]) for k in ("a", "b", "n_alpha", "n_beta")),
                        format_float(row["magnitude"]), str(row["expected_sq"]),
                        "1" if row["exact_match"] else "0"]) for row in entries]
    return "\n".join(lines) + "\n"


def hand_made_set() -> MubSet:
    """Float bases with -0.0, subnormal and extreme components, escaped and non-ASCII
    labels, and class labels on one basis."""
    tiny, sub = sys.float_info.min, 5e-324
    amps = np.array([[complex(-0.0, 0.0), complex(sub, -sub)], [complex(tiny, -0.0), 1e308 - 2e307j]])
    labels = np.array([[[0], [1]], [[1], [1]]])
    return MubSet(2, (
        MubBasis.from_arrays(2, 'quote" back\\ tab\t nl\n', amps),
        MubBasis.from_arrays(2, "caf\u00e9 \u2603 \U0001d11e", -amps, class_labels=labels),
        MubBasis.from_arrays(2, 7, np.array([[0.1 + 0.2j, -0.0 - 0.0j], [1 / 3, 2.5e-310j]])),
    ))


class TestStreamedWriter:
    """The chunked writers give the bytes of the dict path, dumps(mubset_to_doc(...)) + "\\n",
    mubset_to_csv and the one-dict-per-row sumrule table."""

    @staticmethod
    def assert_same_bytes(mub_set, exact):
        assert "".join(serialize.mubset_json_chunks(mub_set, exact)) == \
            dumps(mubset_to_doc(mub_set, exact=exact)) + "\n"
        assert "".join(serialize.mubset_csv_chunks(mub_set)) == serialize.mubset_to_csv(mub_set)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 19])
    def test_prime_and_forced_sets(self, d, exact):
        self.assert_same_bytes(build_complete_set(d, force=True), exact)

    @pytest.mark.parametrize("p, e, a_params", [(2, 1, None), (2, 2, (1, 0)), (3, 2, (0, 1)),
                                                (2, 3, (1, 0, 1)), (5, 2, (3, 1)), (2, 4, None)])
    def test_composite_sets(self, p, e, a_params):
        mub_set = build_composite_set(p, e, a_params)
        self.assert_same_bytes(mub_set, exact=False)
        self.assert_same_bytes(mub_set, exact=True)

    @settings(max_examples=40, deadline=None)
    @given(serializable_sets())
    def test_drawn_sets(self, case):
        self.assert_same_bytes(*case)

    def test_hand_made_floats_and_labels(self):
        mub_set = hand_made_set()
        text = "".join(serialize.mubset_json_chunks(mub_set, exact=False))
        assert text == dumps(mubset_to_doc(mub_set, exact=False)) + "\n"
        assert "[-0,0]" in text and "4.9406564584124654e-324" in text and text.isascii()
        assert "".join(serialize.mubset_csv_chunks(mub_set)) == serialize.mubset_to_csv(mub_set)

    def test_exact_chunks_need_an_exact_set(self):
        with pytest.raises(ValueError, match="without exact amplitudes"):
            serialize.mubset_json_chunks(hand_made_set(), exact=True)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_sumrule(self, d, fmt, tmp_path):
        out = tmp_path / "table"
        assert main(["sumrule", "--dim", str(d), "--format", fmt, "--output", str(out)]) == 0
        assert out.read_text() == reference_sumrule(d, csv=fmt == "csv")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cli_writes_the_same_bytes_to_stdout_and_file(self, fmt, tmp_path, capsys):
        out = tmp_path / "set"
        assert main(["composite", "--p", "3", "--e", "2", "--format", fmt, "--output", str(out)]) == 0
        assert main(["composite", "--p", "3", "--e", "2", "--format", fmt]) == 0
        mub_set = build_composite_set(3, 2)
        reference = serialize.mubset_to_csv(mub_set) if fmt == "csv" else \
            dumps(mubset_to_doc(mub_set, exact=False)) + "\n"
        assert out.read_text() == capsys.readouterr().out == reference

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_amplitude_writes_nothing(self, bad, fmt, tmp_path, monkeypatch, capsys):
        amps = build_complete_set(3).amps.copy()
        amps[2, 1, 2] = complex(0.5, bad)
        broken = MubSet(3, tuple(MubBasis.from_arrays(3, k, a) for k, a in enumerate(amps)))
        monkeypatch.setattr(mubkit.composite, "build_composite_set", lambda *args, **kw: broken)
        out = tmp_path / "set"
        assert main(["composite", "--p", "3", "--e", "1", "--format", fmt,
                     "--output", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert "non-finite float" in captured.err and not captured.out


BIG = int(sys.float_info.max)
#: Replacements for one amplitude of a numeric document, valid ones included.
NUMERIC_AMPS = [True, "1", None, 5, {"re": 1}, [1], [1, 2, 3], [1.0, True], [0.5, "x"], [0, [1]],
                [float("nan"), 0], [float("inf"), 0], [0, -float("inf")], [2**1024, 0],
                [BIG + 1, 0], [BIG, 0.5], [10**300, 0], [-0.0, 5e-324], [1, 0]]
#: Replacements for one amplitude of an exact document, valid ones included.
EXACT_AMPS = [True, 5, [1, 2], None, {"num": 1}, {"num": 1, "mod": 6},
              {"num": True, "mod": 6, "scale_sqrt_dim": 1}, {"num": 1.0, "mod": 6, "scale_sqrt_dim": 1},
              {"num": 1, "mod": 6.0, "scale_sqrt_dim": 1}, {"num": 1, "mod": 12, "scale_sqrt_dim": 1},
              {"num": 1, "mod": 6, "scale_sqrt_dim": 2}, {"num": 1, "mod": 6, "scale_sqrt_dim": -1},
              {"num": 1, "mod": 6, "scale_sqrt_dim": 0}, {"num": 1, "mod": 6, "scale_sqrt_dim": 2**70},
              {"num": 10**30, "mod": 6, "scale_sqrt_dim": 1}, {"num": 2**70, "mod": 6, "scale_sqrt_dim": 1},
              {"num": -7, "mod": 6, "scale_sqrt_dim": 1, "extra": "ignored"}]


def read_outcome(doc):
    """mubset_from_doc's error message, or the arrays of every basis it reads."""
    try:
        mub_set = mubset_from_doc(doc)
    except ValueError as exc:
        return str(exc)
    return [(b.label, b.amps.tobytes(), None if b.exponents is None else b.exponents.tolist(),
             b.scales.tolist()) for b in mub_set.bases]


@st.composite
def edited_set_docs(draw):
    """A d = 3 set document (exact, numeric or composite d = 4) with a few fields replaced."""
    kind = draw(st.sampled_from(["exact", "numeric", "composite"]))
    if kind == "composite":
        doc = mubset_to_doc(build_composite_set(2, 2), exact=False)
    else:
        doc = mubset_to_doc(build_complete_set(3), exact=kind == "exact")
    doc = json.loads(dumps(doc))
    d, amps = doc["dim"], EXACT_AMPS if kind == "exact" else NUMERIC_AMPS
    for _ in range(draw(st.integers(0, 3))):
        basis = draw(st.sampled_from(doc["bases"]))
        n = draw(st.integers(0, d - 1))
        vector = basis["vectors"][n]
        if not (isinstance(vector, list) and vector):
            continue
        edit = draw(st.sampled_from(["amplitude", "amplitude", "amplitude", "row", "shorten"]))
        if edit == "amplitude":
            amp = json.loads(json.dumps(draw(st.sampled_from(amps))))
            vector[draw(st.integers(0, len(vector) - 1))] = amp
        elif edit == "row":
            basis["vectors"][n] = [None] * d if kind == "exact" else "row"
        else:
            vector.pop()
    return doc


class TestReadValidation:
    """The whole-basis checks of mubset_from_doc agree with one amplitude at a time."""

    @settings(max_examples=300, deadline=None)
    @given(edited_set_docs())
    def test_same_outcome_as_per_amplitude_checks(self, doc):
        fast = read_outcome(doc)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serialize, "_checked_vectors", lambda *args: None)
            assert read_outcome(doc) == fast

    @pytest.mark.parametrize("exact", [True, False])
    def test_valid_documents_skip_the_per_amplitude_loop(self, exact, monkeypatch):
        doc = json.loads(dumps(mubset_to_doc(build_complete_set(7), exact=exact)))

        def fail(*args):
            raise AssertionError("a valid basis took the per-amplitude path")

        monkeypatch.setattr(serialize, "_vectors_one_by_one", fail)
        assert verify_set(mubset_from_doc(doc)).passed
