"""Batch command-line front end.

Subcommands: gen (generator matrices), set (complete MUB set for prime d),
verify (re-check a serialized set), sumrule (Gauss-sum table), su2 (polar
decomposition checks), ffz (commutator sweep), composite (prime-power set).
Only verify takes --tol: the others decide on integers.

Exit codes: 0 all verifications pass, 1 a verification failed, 2 usage
error.  Reports go to stdout unless --output is given; diagnostics go to
stderr.  Output is byte-identical for identical configurations.

Each handler imports the modules its subcommand uses, so a process loads
only those: gen and ffz load weyl, su2 loads su2 and weyl, set, verify and
sumrule load mub, and composite loads composite and mub.
"""

import argparse
import itertools
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import serialize
from .cyclo import DEFAULT_TOL, check_tolerance, is_prime

ENV_TOL = "MUBKIT_TOL"
#: Characters of a document that _write gathers before each write.
WRITE_BLOCK = 1 << 21


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
    # argparse passes a string default through type= as well, so $MUBKIT_TOL
    # is checked like --tol (and only read when --tol is absent)
    p_verify.add_argument("--tol", type=_tolerance,
                          default=os.environ.get(ENV_TOL) or str(DEFAULT_TOL),
                          help=f"pass/fail tolerance (default {DEFAULT_TOL}, or ${ENV_TOL})")
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


def _write(args: argparse.Namespace, chunks) -> None:
    """Write the chunks of one document to --output, opened only now, or to stdout.

    The chunks are joined into blocks of about WRITE_BLOCK characters, so a
    document up to that size is written at once: a pipe's reader then gets
    it in full reads, as from one string, and not in the many small pieces
    that writing each chunk as it is made can leave.
    """
    with nullcontext(sys.stdout) if args.output is None else args.output.open("w") as out:
        block, size = [], 0
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= WRITE_BLOCK:
                out.write("".join(block))
                block, size = [], 0
        out.write("".join(block))


def _emit_json(args: argparse.Namespace, doc: dict) -> None:
    _write(args, [serialize.dumps(doc) + "\n"])


def _write_set(args: argparse.Namespace, mub_set, exact: bool) -> None:
    if args.format == "csv":
        _write(args, serialize.mubset_csv_chunks(mub_set))
    else:
        _write(args, serialize.mubset_json_chunks(mub_set, exact))


# -- command implementations -----------------------------------------------------


def _run_gen(args: argparse.Namespace) -> int:
    from . import weyl

    if args.matrix == "v":
        matrix = weyl.build_v(args.dim, args.a)
    else:
        matrix = weyl.build_z(args.dim)
    if args.format == "csv":
        _write(args, [serialize.matrix_to_csv(matrix)])
    else:
        _emit_json(args, serialize.matrix_to_doc(matrix))
    return 0


def _run_set(args: argparse.Namespace) -> int:
    from . import mub

    if args.exact and args.format == "csv":
        raise ValueError("--exact needs --format json: csv holds float amplitudes only")
    mub_set = mub.build_complete_set(args.dim, force=args.force)
    report = mub.verify_set(mub_set)
    _write_set(args, mub_set, args.exact)
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
    from . import mub

    try:
        doc = json.loads(args.set_path.read_text())
    except RecursionError:
        raise ValueError(f"{args.set_path}: nested deeper than the JSON decoder reads") from None
    mub_set = serialize.mubset_from_doc(doc)
    report = mub.verify_set(mub_set, args.tol)
    out = {
        "dim": mub_set.dim,
        "n_bases": len(mub_set.labels),
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
    from . import mub

    d = args.dim
    if not is_prime(d):
        raise ValueError(f"the sum rule holds for prime dimensions; got {d}")
    # Every field of a row depends on the indices only through (x, y) = (a - b,
    # n_alpha - n_beta) mod d (at d = 2, x = -1 and 1 give conjugate sums): each
    # key is decided once, at the indices (x, 0, y, 0).
    decided = {}
    for x, y in itertools.product(range(d), repeat=2):
        indices = (x, 0, y, 0)
        abs2, numeric = mub.gauss_sum_magnitude(d, *indices)
        expected = mub.gauss_sum_expected_sq(d, *indices)
        decided[x, y] = numeric, expected, abs2 == expected
    _write(args, serialize.sumrule_chunks(d, decided, csv=args.format == "csv"))
    return 0 if all(ok for _, _, ok in decided.values()) else 1


def _run_su2(args: argparse.Namespace) -> int:
    from . import su2

    su2.AngularParams(args.two_j, 0)

    def one(a: int) -> dict:
        commutators, action = su2._check_su2_and_action(args.two_j, a)
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
    from . import weyl

    weyl._check_dim_param(args.dim, 0)

    def one(a: int) -> dict:
        rep = weyl.ffz_sweep(args.dim, a, args.max_m)
        details = rep.details
        return {
            "d": args.dim,
            "a": a,
            "sign_convention": details["sign_convention"],
            "m_range": details["m_range"],
            "includes_zero_indices": details["includes_zero_indices"],
            "max_residual": rep.max_residual,
            "opposite_sign_residual_at_basic_pair": details["opposite_sign_residual_at_basic_pair"],
            "pass": rep.passed,
        }

    reports = [one(a) for a in ([args.a] if args.a is not None else range(args.dim))]
    overall = all(r["pass"] for r in reports)
    _emit_json(args, reports[0] if args.a is not None else
               {"d": args.dim, "reports": reports, "pass": overall})
    return 0 if overall else 1


def _run_composite(args: argparse.Namespace) -> int:
    from .composite import ConstructionError, build_composite_set

    a_params = args.a_params
    if a_params is not None and len(a_params) == 1 and args.e > 1:
        a_params = a_params * args.e
    try:
        mub_set = build_composite_set(args.p, args.e, a_params)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_set(args, mub_set, exact=False)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
