"""Deterministic serialization of matrices, basis sets, and reports.

Output must be byte-identical across runs for identical inputs, so floats
are always rendered with 17 significant digits and keys keep construction
order; the stock json encoder's shortest-repr floats are deliberately not
used.  Parsing uses the stdlib.
"""

import json
import math

import numpy as np

from .composite import WeylLabel
from .cyclo import _phase_table, is_prime
from .mub import MubBasis, MubSet, MubVector
from .weyl import OperatorMatrix


def format_float(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float in serialized output")
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Render a document of dicts/lists/scalars as deterministic JSON."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, pieces: list[str]) -> None:
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
            _emit(item, pieces)
        pieces.append("]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(",")
            pieces.append(json.dumps(str(key)))
            pieces.append(":")
            _emit(value, pieces)
        pieces.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


# -- matrices -----------------------------------------------------------------


def matrix_to_doc(matrix: OperatorMatrix) -> dict:
    """{dim, entries: row-major [re, im] pairs, exact?: row-major exponents}."""
    doc = {
        "dim": matrix.dim,
        "entries": [
            [float(v.real), float(v.imag)] for v in matrix.entries.reshape(-1)
        ],
    }
    if matrix.exact is not None:
        doc["exact"] = [
            None if v < 0 else int(v) for v in matrix.exact.reshape(-1)
        ]
    return doc


def matrix_to_csv(matrix: OperatorMatrix) -> str:
    """One row per matrix row, columns interleaved re/im."""
    lines = []
    for row in matrix.entries:
        cells = []
        for v in row:
            cells.append(format_float(v.real))
            cells.append(format_float(v.imag))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- basis sets -----------------------------------------------------------------


def _amplitude_exact_doc(exponent: int, modulus: int, scale: int):
    if exponent < 0:
        return None
    return {"num": int(exponent), "mod": modulus, "scale_sqrt_dim": scale}


def mubset_to_doc(mub_set: MubSet, exact: bool) -> dict:
    """{dim, exact, bases: [{label, vectors: [[amplitude...]]}]}.

    Amplitudes are {num, mod, scale_sqrt_dim} objects (meaning
    tau**num / d**(scale/2), null for zero) in exact mode and [re, im]
    pairs otherwise.  Composite class labels are embedded per basis.
    """
    if exact and not mub_set.exact:
        raise ValueError("exact serialization requested for a set without exact amplitudes")
    mod = 2 * mub_set.dim
    bases = []
    for basis in mub_set.bases:
        vectors = []
        for vec in basis.vectors:
            if exact:
                vectors.append(
                    [
                        _amplitude_exact_doc(int(k), mod, vec.scale_sqrt_dim)
                        for k in vec.exact_exponents
                    ]
                )
            else:
                vectors.append(
                    [[float(v.real), float(v.imag)] for v in vec.amps]
                )
        basis_doc = {"label": str(basis.label), "vectors": vectors}
        if basis.class_labels is not None:
            basis_doc["class_labels"] = [
                {"x": list(lbl.x), "z": list(lbl.z)} for lbl in basis.class_labels
            ]
        bases.append(basis_doc)
    return {"dim": mub_set.dim, "exact": exact, "bases": bases}


def _parse_label(text: str) -> int | str:
    return int(text) if text.isdigit() else text


def _prime_power(d: int) -> tuple[int, int]:
    """(p, e) with d = p**e; ValueError if d is not a prime power."""
    for p in filter(is_prime, range(2, d + 1)):
        e = round(math.log(d, p))
        if p**e == d:
            return p, e
    raise ValueError(f"class_labels need a prime-power dim, got {d}")


def _parse_class_labels(label_docs, d: int, where: str) -> tuple:
    p, e = _prime_power(d)
    if not isinstance(label_docs, list):
        raise ValueError(f"{where}: class_labels must be a list")
    labels = []
    for lbl in label_docs:
        if not isinstance(lbl, dict) or not all(
            isinstance(lbl.get(k), list)
            and len(lbl[k]) == e
            and all(type(v) is int and 0 <= v < p for v in lbl[k])
            for k in "xz"
        ):
            raise ValueError(
                f"{where}: class label {lbl} needs x and z lists of length {e} "
                f"with entries in 0..{p - 1}"
            )
        labels.append(WeylLabel(p, e, lbl["x"], lbl["z"]))
    return tuple(labels)


def mubset_from_doc(doc: dict) -> MubSet:
    d = int(doc["dim"])
    exact = bool(doc["exact"])
    if not doc["bases"]:
        raise ValueError("set document has no bases")
    mod = 2 * d
    bases = []
    for basis_doc in doc["bases"]:
        label = _parse_label(basis_doc["label"])
        vectors = []
        for n, amp_list in enumerate(basis_doc["vectors"]):
            where = f"basis {label} vector {n}"
            if len(amp_list) != d:
                raise ValueError(f"{where} has {len(amp_list)} amplitudes, expected {d}")
            if exact:
                present = [amp for amp in amp_list if amp is not None]
                if any(int(amp["mod"]) != mod for amp in present):
                    raise ValueError(f"{where}: every amplitude needs mod = 2*dim = {mod}")
                scales = {int(amp["scale_sqrt_dim"]) for amp in present}
                if len(scales) != 1:
                    raise ValueError(
                        f"{where}: needs a single scale_sqrt_dim, got {sorted(scales)}"
                    )
                scale = scales.pop()
                exps = np.array(
                    [-1 if amp is None else int(amp["num"]) % mod for amp in amp_list],
                    dtype=np.int64,
                )
                table = _phase_table(mod)
                amps = np.where(exps < 0, 0, table[np.where(exps < 0, 0, exps)])
                amps = amps / d ** (scale / 2)
                vectors.append(MubVector(d, label, n, amps, exps, scale))
            else:
                amps = np.array([complex(re, im) for re, im in amp_list])
                vectors.append(MubVector(d, label, n, amps, None, 1))
        class_labels = None
        if "class_labels" in basis_doc:
            class_labels = _parse_class_labels(basis_doc["class_labels"], d, f"basis {label}")
        bases.append(MubBasis(d, label, tuple(vectors), class_labels))
    return MubSet(d, tuple(bases))


def mubset_to_csv(mub_set: MubSet) -> str:
    """One row per vector across all bases, columns interleaved re/im."""
    lines = []
    for basis in mub_set.bases:
        for vec in basis.vectors:
            cells = []
            for v in vec.amps:
                cells.append(format_float(v.real))
                cells.append(format_float(v.imag))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
