"""Batch command-line front end.

Subcommands: gen (generator matrices), set (complete MUB set for prime d),
verify (re-check a serialized set), sumrule (Gauss-sum table), su2 (polar
decomposition checks), ffz (commutator sweep), composite (prime-power set).

Exit codes: 0 all verifications pass, 1 a verification failed, 2 usage
error.  Reports go to stdout unless --output is given; diagnostics go to
stderr.  Output is byte-identical for identical configurations.
"""

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import composite as composite_mod
from . import mub, serialize, su2, weyl
from .cyclo import DEFAULT_TOL, check_tolerance, is_prime

ENV_TOL = "MUBKIT_TOL"


@dataclass
class RunConfig:
    command: str
    dim: int | None = None
    two_j: int | None = None
    p: int | None = None
    e: int | None = None
    a: int | None = None
    a_params: tuple | None = None
    max_m: int | None = None
    tol: float = DEFAULT_TOL
    exact: bool = False
    force: bool = False
    format: str = "json"
    output: Path | None = None
    set_path: Path | None = None
    matrix: str = "v"


def _tolerance(text: str) -> float:
    """A pass/fail tolerance: anything but a finite positive number is a usage error."""
    try:
        return check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number (from --tol or ${ENV_TOL}), got {text!r}"
        ) from None


def _add_common(parser: argparse.ArgumentParser, formats: bool = False) -> None:
    # argparse passes a string default through type= as well, so $MUBKIT_TOL
    # is checked like --tol (and only read when --tol is absent)
    parser.add_argument("--tol", type=_tolerance,
                        default=os.environ.get(ENV_TOL) or str(DEFAULT_TOL),
                        help=f"pass/fail tolerance (default {DEFAULT_TOL}, or ${ENV_TOL})")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report/artifact here instead of stdout")
    if formats:
        parser.add_argument("--format", choices=("json", "csv"), default="json")


def parse_args(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct and verify complete sets of mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a generator matrix")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--a", type=int, default=0)
    p_gen.add_argument("--matrix", choices=("v", "z"), default="v")
    _add_common(p_gen, formats=True)

    p_set = sub.add_parser("set", help="build and verify a complete MUB set")
    p_set.add_argument("--dim", type=int, required=True)
    p_set.add_argument("--exact", action="store_true",
                       help="serialize exact amplitudes instead of floats")
    p_set.add_argument("--force", action="store_true",
                       help="build the family even for non-prime dim")
    _add_common(p_set, formats=True)

    p_verify = sub.add_parser("verify", help="verify a serialized MUB set")
    p_verify.add_argument("--set", dest="set_path", type=Path, required=True)
    _add_common(p_verify)

    p_sum = sub.add_parser("sumrule", help="Gauss-sum magnitude table")
    p_sum.add_argument("--dim", type=int, required=True)
    _add_common(p_sum, formats=True)

    p_su2 = sub.add_parser("su2", help="ladder-operator checks")
    p_su2.add_argument("--two-j", dest="two_j", type=int, required=True)
    p_su2.add_argument("--a", type=int, default=None)
    _add_common(p_su2)

    p_ffz = sub.add_parser("ffz", help="sine-algebra commutator sweep")
    p_ffz.add_argument("--dim", type=int, required=True)
    p_ffz.add_argument("--a", type=int, default=None)
    p_ffz.add_argument("--max-m", dest="max_m", type=int, default=None)
    _add_common(p_ffz)

    p_comp = sub.add_parser("composite", help="prime-power MUB set")
    p_comp.add_argument("--p", type=int, required=True)
    p_comp.add_argument("--e", type=int, required=True)
    p_comp.add_argument("--a", type=str, default=None,
                        help="comma-separated per-slot phase parameters")
    _add_common(p_comp, formats=True)

    ns = parser.parse_args(argv)
    config = RunConfig(command=ns.command)
    config.tol = ns.tol
    config.output = ns.output
    if hasattr(ns, "format"):
        config.format = ns.format
    if ns.command == "gen":
        config.dim, config.a, config.matrix = ns.dim, ns.a, ns.matrix
    elif ns.command == "set":
        config.dim, config.exact, config.force = ns.dim, ns.exact, ns.force
    elif ns.command == "verify":
        config.set_path = ns.set_path
    elif ns.command == "sumrule":
        config.dim = ns.dim
    elif ns.command == "su2":
        config.two_j, config.a = ns.two_j, ns.a
    elif ns.command == "ffz":
        config.dim, config.a, config.max_m = ns.dim, ns.a, ns.max_m
    elif ns.command == "composite":
        config.p, config.e = ns.p, ns.e
        if ns.a is not None:
            try:
                config.a_params = tuple(int(v) for v in ns.a.split(","))
            except ValueError:
                parser.error("--a must be a comma-separated list of integers")
    return config


def _write(config: RunConfig, text: str) -> None:
    if config.output is not None:
        config.output.write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, doc: dict) -> None:
    _write(config, serialize.dumps(doc) + "\n")


# -- command implementations -----------------------------------------------------


def _run_gen(config: RunConfig) -> int:
    if config.matrix == "v":
        matrix = weyl.build_v(config.dim, config.a)
    else:
        matrix = weyl.build_z(config.dim)
    if config.format == "csv":
        _write(config, serialize.matrix_to_csv(matrix))
    else:
        _emit_json(config, serialize.matrix_to_doc(matrix))
    return 0


def _run_set(config: RunConfig) -> int:
    mub_set = mub.build_complete_set(config.dim, force=config.force)
    report = mub.verify_set(mub_set, config.tol)
    if config.format == "csv":
        _write(config, serialize.mubset_to_csv(mub_set))
    else:
        _emit_json(config, serialize.mubset_to_doc(mub_set, exact=config.exact))
    if not report.passed:
        for pair in report.details["failing_pairs"]:
            print(
                f"unbiasedness failed for pair ({pair['a']}, {pair['b']}): "
                f"max residual {pair['max_residual']:.6e}",
                file=sys.stderr,
            )
        if "note" in report.details:
            print(report.details["note"], file=sys.stderr)
        return 1
    return 0


def _run_verify(config: RunConfig) -> int:
    doc = json.loads(config.set_path.read_text())
    mub_set = serialize.mubset_from_doc(doc)
    report = mub.verify_set(mub_set, config.tol)
    out = {
        "dim": mub_set.dim,
        "n_bases": len(mub_set.bases),
        "tolerance": config.tol,
        "exact": report.details["exact"],
        "max_residual": report.max_residual,
        "failing_pairs": report.details["failing_pairs"],
        "pass": report.passed,
    }
    _emit_json(config, out)
    return 0 if report.passed else 1


def _run_sumrule(config: RunConfig) -> int:
    d = config.dim
    if not is_prime(d):
        raise ValueError(f"the sum rule holds for prime dimensions; got {d}")
    entries = []
    all_ok = True
    # The sum, and so every field below, depends on the indices only through
    # (a - b, n_alpha - n_beta): each such key is decided once.
    decided = {}
    for a, b, n_alpha, n_beta in itertools.product(range(d), repeat=4):
        key = (a - b, n_alpha - n_beta)
        if key not in decided:
            abs2, numeric = mub.gauss_sum_magnitude(d, a, b, n_alpha, n_beta)
            expected = mub.gauss_sum_expected_sq(d, a, b, n_alpha, n_beta)
            decided[key] = numeric, expected, abs2 == expected
        numeric, expected, ok = decided[key]
        all_ok &= ok
        entries.append(
            {
                "a": a,
                "b": b,
                "n_alpha": n_alpha,
                "n_beta": n_beta,
                "magnitude": numeric,
                "expected_sq": expected,
                "exact_match": ok,
            }
        )
    if config.format == "csv":
        lines = ["a,b,n_alpha,n_beta,magnitude,expected_sq,exact_match"]
        for row in entries:
            lines.append(
                ",".join(
                    [
                        str(row["a"]),
                        str(row["b"]),
                        str(row["n_alpha"]),
                        str(row["n_beta"]),
                        serialize.format_float(row["magnitude"]),
                        str(row["expected_sq"]),
                        "1" if row["exact_match"] else "0",
                    ]
                )
            )
        _write(config, "\n".join(lines) + "\n")
    else:
        _emit_json(config, {"dim": d, "entries": entries, "pass": all_ok})
    return 0 if all_ok else 1


def _run_su2(config: RunConfig) -> int:
    su2.AngularParams(config.two_j, 0)

    def one(a: int) -> dict:
        commutators = su2.check_su2(config.two_j, a, config.tol)
        action = su2.check_ladder_action(config.two_j, a, config.tol)
        res = commutators.details["residuals"]
        return {
            "two_j": config.two_j,
            "a": a,
            "residuals": {
                "jz_jp": res["jz_jp"],
                "jz_jm": res["jz_jm"],
                "jp_jm": res["jp_jm"],
                "casimir": res["casimir"],
                "action": max(res["jz_action"], action.max_residual),
            },
            "pass": commutators.passed and action.passed,
        }

    if config.a is not None:
        doc = one(config.a)
        _emit_json(config, doc)
        return 0 if doc["pass"] else 1
    reports = [one(a) for a in range(config.two_j + 1)]
    overall = all(r["pass"] for r in reports)
    _emit_json(config, {"two_j": config.two_j, "reports": reports, "pass": overall})
    return 0 if overall else 1


def _run_ffz(config: RunConfig) -> int:
    weyl._check_dim_param(config.dim, 0)
    a_values = [config.a] if config.a is not None else list(range(config.dim))
    reports = []
    overall = True
    for a in a_values:
        rep = weyl.ffz_sweep(config.dim, a, config.max_m, tol=config.tol)
        overall &= rep.passed
        reports.append(
            {
                "d": config.dim,
                "a": a,
                "sign_convention": rep.details["sign_convention"],
                "m_range": rep.details["m_range"],
                "includes_zero_indices": rep.details["includes_zero_indices"],
                "max_residual": rep.max_residual,
                "opposite_sign_residual_at_basic_pair": rep.details[
                    "opposite_sign_residual_at_basic_pair"
                ],
                "pass": rep.passed,
            }
        )
    doc = reports[0] if config.a is not None else {
        "d": config.dim,
        "reports": reports,
        "pass": overall,
    }
    _emit_json(config, doc)
    return 0 if overall else 1


def _run_composite(config: RunConfig) -> int:
    a_params = config.a_params
    if a_params is not None and len(a_params) == 1 and config.e > 1:
        a_params = a_params * config.e
    mub_set = composite_mod.build_composite_set(config.p, config.e, a_params, tol=config.tol)
    if config.format == "csv":
        _write(config, serialize.mubset_to_csv(mub_set))
    else:
        _emit_json(config, serialize.mubset_to_doc(mub_set, exact=False))
    return 0


def run(config: RunConfig) -> int:
    handlers = {
        "gen": _run_gen,
        "set": _run_set,
        "verify": _run_verify,
        "sumrule": _run_sumrule,
        "su2": _run_su2,
        "ffz": _run_ffz,
        "composite": _run_composite,
    }
    return handlers[config.command](config)


def main(argv=None) -> int:
    config = parse_args(argv)
    try:
        return run(config)
    except composite_mod.ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
