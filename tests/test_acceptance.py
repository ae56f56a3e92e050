"""End-to-end acceptance checks.

Each test enforces one headline guarantee at its stated tolerance, prints
one PASS/FAIL line, and fails the assertion on FAIL.  Run with -v for the
per-criterion status report.
"""

import json

import numpy as np

import mubkit as mk
from mubkit.cli import main as cli_main

PRIMES_19 = [2, 3, 5, 7, 11, 13, 17, 19]


def _check(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {tag}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_complete_sets_prime_dims():
    ok = True
    worst = 0.0
    for d in PRIMES_19:
        mub_set = mk.build_complete_set(d)
        ok &= len(mub_set.bases) == d + 1
        bases = mub_set.bases
        n_pairs = 0
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                rep = mk.verify_unbiased(bases[i], bases[j], tol=1e-10)
                # exact cyclotomic verdict and the numeric residual must both hold
                ok &= rep.details["exact"] is True
                ok &= rep.max_residual < 1e-10
                worst = max(worst, rep.max_residual)
                n_pairs += 1
        ok &= n_pairs == (d + 1) * d // 2
    _check(1, "complete sets for prime d <= 19", ok, f"max numeric residual {worst:.2e}")


def test_criterion_02_eigen_relation_exact():
    ok = True
    for d in PRIMES_19:
        for a in range(d):
            for n in range(d):
                ok &= mk.mub.eigen_relation_residual(d, a, n) == 0
    _check(2, "eigen-relation with zero exponent residual", ok)


def test_criterion_03_trace_identity_exact():
    ok = True
    for d in PRIMES_19:
        mats = [mk.build_v(d, a) for a in range(d)]
        for a in range(d):
            for b in range(d):
                expected = d if a == b else 0
                ok &= mk.trace_inner_exact(mats[a], mats[b]) == expected
    _check(3, "trace identity d*delta(a,b), exact", ok)


def test_criterion_04_gauss_sum_rule_exact():
    ok = True
    for d in (2, 3, 5, 7, 11, 13):
        for a in range(d):
            for b in range(d):
                for n_alpha in range(d):
                    for n_beta in range(d):
                        abs2, _ = mk.gauss_sum_magnitude(d, a, b, n_alpha, n_beta)
                        expected = mk.mub.gauss_sum_expected_sq(d, a, b, n_alpha, n_beta)
                        ok &= abs2 == expected
    _check(4, "Gauss sum rule, exact for d <= 13", ok)


def test_criterion_05_su2_commutators_and_action():
    ok = True
    worst = 0.0
    for two_j in range(1, 13):
        for a in range(two_j + 1):
            rep = mk.check_su2(two_j, a)
            residuals = rep.details["residuals"]
            ok &= residuals["jz_jp"] < 1e-10
            ok &= residuals["jz_jm"] < 1e-10
            ok &= residuals["jp_jm"] < 1e-10
            ok &= residuals["jz_action"] == 0.0  # exact
            action = mk.check_ladder_action(two_j, a)
            ok &= action.passed
            worst = max(worst, rep.max_residual, action.max_residual)
    _check(5, "su(2) ladder algebra for two_j <= 12, every a", ok, f"max residual {worst:.2e}")


def test_criterion_06_ffz_commutator_sweep():
    ok = True
    worst = 0.0
    convention = None
    for d in (2, 3, 5, 7):
        for a in range(d):
            rep = mk.ffz_sweep(d, a, max_m=2 * d - 1)
            ok &= rep.passed
            worst = max(worst, rep.max_residual)
            convention = rep.details["sign_convention"]
            ok &= rep.details["opposite_sign_fails"]
            ok &= rep.details["opposite_sign_residual_at_basic_pair"] > 0.1
    _check(
        6,
        "sine-algebra commutators for d in {2,3,5,7}",
        ok,
        f"convention {convention:+d}, max residual {worst:.2e}",
    )


def test_criterion_07_weyl_relations_exact():
    ok = True
    for d in range(2, 20):
        z = mk.build_z(d)
        v0 = mk.build_v(d, 0)
        for a in range(d):
            ok &= mk.weyl.exact_equal(mk.build_v(d, a), v0 @ z.power(a))
            ok &= mk.q_commutation_residual(d, a).details["exact_zero"]
    _check(7, "group relation and q-commutation, exact for d <= 19", ok)


def test_criterion_08_prime_power_sets():
    ok = True
    set4 = mk.build_composite_set(2, 2)
    ok &= len(set4.bases) == 5
    ok &= mk.verify_set(set4, tol=1e-9).passed
    set9 = mk.build_composite_set(3, 2)
    ok &= len(set9.bases) == 10
    ok &= mk.verify_set(set9, tol=1e-9).passed

    # e = 1 reduction: both construction paths give the same overlap-modulus tables
    composite5 = mk.build_composite_set(5, 1)
    direct5 = mk.build_complete_set(5)

    def sorted_tables(mub_set):
        bases = mub_set.bases
        tables = []
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                moduli = np.abs(mk.overlap_matrix(bases[i], bases[j])).reshape(-1)
                tables.append(np.sort(moduli))
        return np.sort(np.stack(tables), axis=0)

    diff = np.abs(sorted_tables(composite5) - sorted_tables(direct5)).max()
    ok &= diff < 1e-9
    _check(8, "prime-power sets at d = 4 and d = 9", ok, f"e=1 table difference {diff:.2e}")


def test_criterion_09_negative_case_non_prime():
    ok = True
    for d in (6, 9):
        mub_set = mk.build_complete_set(d, force=True)
        rep = mk.verify_set(mub_set)
        ok &= not rep.passed
        bases = mub_set.bases
        worst_violation = 0.0
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                moduli = np.abs(mk.overlap_matrix(bases[i], bases[j]))
                deviation = np.abs(moduli - 1 / np.sqrt(d)).max()
                if bases[i].label == "s" or bases[j].label == "s":
                    ok &= deviation < 1e-10  # flat bases stay unbiased to computational
                else:
                    worst_violation = max(worst_violation, deviation)
        ok &= worst_violation > 0.01
    _check(9, "no complete set at d = 6, 9 from the direct recipe", ok)


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    ok = True
    configs = [
        ["set", "--dim", "5", "--exact"],
        ["sumrule", "--dim", "5"],
        ["composite", "--p", "2", "--e", "2"],
    ]
    for argv in configs:
        out1 = tmp_path / ("a_" + argv[0])
        out2 = tmp_path / ("b_" + argv[0])
        ok &= cli_main(argv + ["--output", str(out1)]) == 0
        ok &= cli_main(argv + ["--output", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()

    for d in (3, 5, 7):
        path = tmp_path / f"set{d}.json"
        ok &= cli_main(["set", "--dim", str(d), "--exact", "--output", str(path)]) == 0
        ok &= cli_main(["verify", "--set", str(path), "--output", str(tmp_path / "r.json")]) == 0
        ok &= json.loads((tmp_path / "r.json").read_text())["pass"] is True
    _check(10, "CLI determinism and JSON round trip", ok)
