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
from pathlib import Path

from . import composite as composite_mod
from . import mub, serialize, su2, weyl
from .cyclo import DEFAULT_TOL, check_tolerance, is_prime

ENV_TOL = "MUBKIT_TOL"


def _tolerance(text: str) -> float:
    """A pass/fail tolerance: anything but a finite positive number is a usage error."""
    try:
        return check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number (from --tol or ${ENV_TOL}), got {text!r}"
        ) from None


def _a_params(text: str) -> tuple:
    """composite --a: a comma-separated list of integers, else a usage error."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("must be a comma-separated list of integers") from None


def _add_common(parser: argparse.ArgumentParser, run, formats: bool = False) -> None:
    """The options every subcommand shares, and run, the handler main calls with the namespace."""
    parser.set_defaults(run=run)
    # argparse passes a string default through type= as well, so $MUBKIT_TOL
    # is checked like --tol (and only read when --tol is absent)
    parser.add_argument("--tol", type=_tolerance,
                        default=os.environ.get(ENV_TOL) or str(DEFAULT_TOL),
                        help=f"pass/fail tolerance (default {DEFAULT_TOL}, or ${ENV_TOL})")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the report/artifact here instead of stdout")
    if formats:
        parser.add_argument("--format", choices=("json", "csv"), default="json")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct and verify complete sets of mutually unbiased bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a generator matrix")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--a", type=int, default=0)
    p_gen.add_argument("--matrix", choices=("v", "z"), default="v")
    _add_common(p_gen, _run_gen, formats=True)

    p_set = sub.add_parser("set", help="build and verify a complete MUB set")
    p_set.add_argument("--dim", type=int, required=True)
    p_set.add_argument("--exact", action="store_true",
                       help="serialize exact amplitudes instead of floats")
    p_set.add_argument("--force", action="store_true",
                       help="build the family even for non-prime dim")
    _add_common(p_set, _run_set, formats=True)

    p_verify = sub.add_parser("verify", help="verify a serialized MUB set")
    p_verify.add_argument("--set", dest="set_path", type=Path, required=True)
    _add_common(p_verify, _run_verify)

    p_sum = sub.add_parser("sumrule", help="Gauss-sum magnitude table")
    p_sum.add_argument("--dim", type=int, required=True)
    _add_common(p_sum, _run_sumrule, formats=True)

    p_su2 = sub.add_parser("su2", help="ladder-operator checks")
    p_su2.add_argument("--two-j", dest="two_j", type=int, required=True)
    p_su2.add_argument("--a", type=int, default=None)
    _add_common(p_su2, _run_su2)

    p_ffz = sub.add_parser("ffz", help="sine-algebra commutator sweep")
    p_ffz.add_argument("--dim", type=int, required=True)
    p_ffz.add_argument("--a", type=int, default=None)
    p_ffz.add_argument("--max-m", dest="max_m", type=int, default=None)
    _add_common(p_ffz, _run_ffz)

    p_comp = sub.add_parser("composite", help="prime-power MUB set")
    p_comp.add_argument("--p", type=int, required=True)
    p_comp.add_argument("--e", type=int, required=True)
    p_comp.add_argument("--a", dest="a_params", type=_a_params, default=None,
                        help="comma-separated per-slot phase parameters")
    _add_common(p_comp, _run_composite, formats=True)

    return parser.parse_args(argv)


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output is not None:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    _write(args, serialize.dumps(doc) + "\n")


# -- command implementations -----------------------------------------------------


def _run_gen(args: argparse.Namespace) -> int:
    if args.matrix == "v":
        matrix = weyl.build_v(args.dim, args.a)
    else:
        matrix = weyl.build_z(args.dim)
    if args.format == "csv":
        _write(args, serialize.matrix_to_csv(matrix))
    else:
        _emit_json(args, serialize.matrix_to_doc(matrix))
    return 0


def _run_set(args: argparse.Namespace) -> int:
    mub_set = mub.build_complete_set(args.dim, force=args.force)
    report = mub.verify_set(mub_set, args.tol)
    if args.format == "csv":
        _write(args, serialize.mubset_to_csv(mub_set))
    else:
        _emit_json(args, serialize.mubset_to_doc(mub_set, exact=args.exact))
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


def _run_verify(args: argparse.Namespace) -> int:
    doc = json.loads(args.set_path.read_text())
    mub_set = serialize.mubset_from_doc(doc)
    report = mub.verify_set(mub_set, args.tol)
    out = {
        "dim": mub_set.dim,
        "n_bases": len(mub_set.bases),
        "complete": report.details["complete"],
        "tolerance": args.tol,
        "exact": report.details["exact"],
        "max_residual": report.max_residual,
        "failing_pairs": report.details["failing_pairs"],
        "pass": report.passed,
    }
    _emit_json(args, out)
    return 0 if report.passed else 1


def _run_sumrule(args: argparse.Namespace) -> int:
    d = args.dim
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
    if args.format == "csv":
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
        _write(args, "\n".join(lines) + "\n")
    else:
        _emit_json(args, {"dim": d, "entries": entries, "pass": all_ok})
    return 0 if all_ok else 1


def _run_su2(args: argparse.Namespace) -> int:
    su2.AngularParams(args.two_j, 0)

    def one(a: int) -> dict:
        commutators = su2.check_su2(args.two_j, a, args.tol)
        action = su2.check_ladder_action(args.two_j, a, args.tol)
        res = commutators.details["residuals"]
        return {
            "two_j": args.two_j,
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

    if args.a is not None:
        doc = one(args.a)
        _emit_json(args, doc)
        return 0 if doc["pass"] else 1
    reports = [one(a) for a in range(args.two_j + 1)]
    overall = all(r["pass"] for r in reports)
    _emit_json(args, {"two_j": args.two_j, "reports": reports, "pass": overall})
    return 0 if overall else 1


def _run_ffz(args: argparse.Namespace) -> int:
    weyl._check_dim_param(args.dim, 0)
    a_values = [args.a] if args.a is not None else list(range(args.dim))
    reports = []
    overall = True
    for a in a_values:
        rep = weyl.ffz_sweep(args.dim, a, args.max_m, tol=args.tol)
        overall &= rep.passed
        reports.append(
            {
                "d": args.dim,
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
    doc = reports[0] if args.a is not None else {
        "d": args.dim,
        "reports": reports,
        "pass": overall,
    }
    _emit_json(args, doc)
    return 0 if overall else 1


def _run_composite(args: argparse.Namespace) -> int:
    a_params = args.a_params
    if a_params is not None and len(a_params) == 1 and args.e > 1:
        a_params = a_params * args.e
    mub_set = composite_mod.build_composite_set(args.p, args.e, a_params, tol=args.tol)
    if args.format == "csv":
        _write(args, serialize.mubset_to_csv(mub_set))
    else:
        _emit_json(args, serialize.mubset_to_doc(mub_set, exact=False))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
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
