"""Correctness gate, run untimed after every job.

The gate does not trust the library's own verdict.  It rebuilds every basis
set as plain numpy rows and checks the Gram matrix itself: |<u|v>|^2 = 1/d
across bases and the identity within each basis, with d+1 bases.  Each check
returns a list of problems; an empty list means the job passed.
"""

import hashlib
import json

import numpy as np

#: Largest allowed deviation of |<u|v>|^2 from its target.
GRAM_TOL = 1e-8


def gram_problems(rows, d):
    """Problems with a set given as a list of (d, d) arrays, vectors as rows."""
    if len(rows) != d + 1:
        return [f"{len(rows)} bases, expected d+1 = {d + 1}"]
    if any(np.shape(r) != (d, d) for r in rows):
        return ["a basis is not a d x d array"]
    a = np.concatenate(rows)
    overlap2 = np.abs(a.conj() @ a.T) ** 2
    target = np.full(overlap2.shape, 1.0 / d)
    for i in range(d + 1):
        target[i * d : (i + 1) * d, i * d : (i + 1) * d] = np.eye(d)
    dev = float(np.abs(overlap2 - target).max())
    return [] if dev < GRAM_TOL else [f"gram deviation {dev:.3e}"]


def check_set(mub_set, d, report=None, expect_exact=False):
    """Gate an in-process set, plus the library report when there is one."""
    problems = gram_problems([np.asarray(b.as_array()) for b in mub_set.bases], d)
    if report is not None:
        if report.passed is not True:
            problems.append("library verdict: fail")
        if expect_exact and report.details.get("exact") is not True:
            problems.append("verdict not exact")
    return problems


def doc_rows(doc):
    """Rows of every basis of a serialized set, decoded without mubkit."""
    d = int(doc["dim"])
    rows = []
    for basis in doc["bases"]:
        vecs = []
        for amps in basis["vectors"]:
            if doc["exact"]:
                vecs.append([
                    0.0 if amp is None else
                    np.exp(1j * np.pi * amp["num"] / d) / d ** (amp["scale_sqrt_dim"] / 2)
                    for amp in amps
                ])
            else:
                vecs.append([complex(re, im) for re, im in amps])
        rows.append(np.array(vecs, dtype=np.complex128))
    return rows


def check_cli_output(check, stdout, files):
    """Problems with one CLI job's output.

    check is (kind, expected): "gen" expects that dimension, "pass" expects a
    report with pass: true and, when given, that many entries under key,
    "set" expects a set file with exactness `expected`, "verify" expects a
    passing report with exactness `expected`.
    """
    kind, expected = check
    if kind == "set":
        doc = json.loads(files[0])
        problems = gram_problems(doc_rows(doc), int(doc["dim"]))
        if doc["exact"] is not expected:
            problems.append(f"exact is {doc['exact']}, expected {expected}")
        return problems
    out = json.loads(stdout)
    if kind == "gen":
        ok = out["dim"] == expected and len(out["entries"]) == expected**2
        return [] if ok else ["wrong generator matrix shape"]
    problems = [] if out.get("pass") is True else ["pass is not true"]
    if kind == "verify":
        if out["n_bases"] != out["dim"] + 1:
            problems.append("incomplete set")
        if out["exact"] is not expected:
            problems.append(f"exact is {out['exact']}, expected {expected}")
    elif kind == "pass" and expected is not None:
        key, n = expected
        if len(out[key]) != n:
            problems.append(f"{len(out[key])} {key}, expected {n}")
    return problems


class Repeats:
    """Output digests per argv, so a repeated argv must repeat byte for byte."""

    def __init__(self):
        self.seen = {}

    def problems(self, argv, stdout, files):
        digest = hashlib.sha256(stdout)
        for data in files:
            digest.update(data)
        digest = digest.hexdigest()
        first = self.seen.setdefault(tuple(argv), digest)
        return [] if first == digest else ["output differs from an earlier identical argv"]
