"""Self-test of the correctness gate: every planted failure must be caught.

Usage, from the root of a checkout that holds src/mubkit:

    python3 perfbench/selftest.py

Plants a forced d = 6 set (not unbiased), a prime set with its exact
exponents stripped, a CLI job that exits non-zero, and an in-process and a
CLI job that overrun their timeout.  Two good jobs are run as controls, so
a gate that fails everything does not pass.  Exits 0 when every planted
failure is counted as failed and every control passes.
"""

import dataclasses
import random
import shutil
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import mubkit as mk  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def stripped(mub_set):
    """The same set with every vector's exact exponents removed."""
    bases = tuple(
        mk.MubBasis(b.dim, b.label, tuple(dataclasses.replace(v, exact_exponents=None) for v in b.vectors))
        for b in mub_set.bases
    )
    return mk.MubSet(mub_set.dim, bases)


def cases(cli, prime):
    """(name, planted?, problems) for every case."""
    s6 = mk.build_complete_set(6, force=True)
    yield "forced d=6 set", True, gate.check_set(s6, 6, mk.verify_set(s6), expect_exact=True)
    yield "forced d=6 set, Gram check alone", True, gate.check_set(s6, 6)
    s7 = stripped(mk.build_complete_set(7))
    yield "d=7 set, exact exponents stripped", True, gate.check_set(
        s7, 7, mk.verify_set(s7), expect_exact=True
    )
    yield "CLI exits non-zero", True, cli.run(
        Job("set6", ["set", "--dim", "6"], ("set", True), "6.json"), 60, None
    )[1]
    yield "in-process job overruns its timeout", True, prime.run(Job("d23", 23), 0.05, None)[1]
    yield "CLI job overruns its timeout", True, cli.run(
        Job("sumrule11", ["sumrule", "--dim", "11"], ("pass", None)), 0.3, None
    )[1]
    yield "control: d=7 job", False, prime.run(Job("d7", 7), 60, None)[1]
    yield "control: CLI set --dim 5 --exact", False, cli.run(
        Job("set5x", ["set", "--dim", "5", "--exact", "--output", "5.json"], ("set", True), "5.json"),
        60,
        None,
    )[1]


def main():
    workdir = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    shim = run.HERE / "cli_shim.py"
    cli = workloads.CliRoundtrip(workdir, run.client_env(), shim, random.Random(0))
    prime = workloads.PrimeExact()
    prime.setup()
    ok = True
    try:
        for name, planted, problems in cases(cli, prime):
            caught = bool(problems)
            good = caught == planted
            ok &= good
            verdict = "ok" if good else "WRONG"
            print(f"{verdict:5s} {name}: {'failed' if caught else 'passed'} {problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
