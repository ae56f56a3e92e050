"""Deterministic serialization of matrices, basis sets, and reports.

Output must be byte-identical across runs for identical inputs, so floats
are always rendered with 17 significant digits and keys keep construction
order; the stock json encoder's shortest-repr floats are deliberately not
used.  Parsing uses the stdlib.
"""

import json
import math
import sys

import numpy as np

from .cyclo import is_prime
from .mub import MubBasis, MubSet
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


def _csv(rows) -> str:
    """One line per complex row, columns interleaved re/im."""
    return "".join(
        ",".join(format_float(x) for v in row for x in (v.real, v.imag)) + "\n" for row in rows
    )


def matrix_to_csv(matrix: OperatorMatrix) -> str:
    """One row per matrix row, columns interleaved re/im."""
    return _csv(matrix.entries)


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
        if exact:
            vectors = [
                [_amplitude_exact_doc(k, mod, scale) for k in row]
                for row, scale in zip(basis.exponents.tolist(), basis.scales.tolist())
            ]
        else:
            vectors = basis.amps.view(np.float64).reshape(mub_set.dim, mub_set.dim, 2).tolist()
        basis_doc = {"label": str(basis.label), "vectors": vectors}
        if basis.class_labels is not None:
            basis_doc["class_labels"] = [{"x": x, "z": z} for x, z in basis.class_labels.tolist()]
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


def _parse_class_labels(label_docs, d: int, where: str) -> np.ndarray:
    """The members (m, 2, e) of a class_labels list, rows x and z."""
    p, e = _prime_power(d)
    if not isinstance(label_docs, list):
        raise ValueError(f"{where}: class_labels must be a list")
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
    return np.array([(lbl["x"], lbl["z"]) for lbl in label_docs], dtype=np.int64).reshape(-1, 2, e)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} is missing" if value is None else f"{what} must be a list")
    return value


def _exact_row(amp_list: list, d: int, where: str) -> tuple[list, int]:
    """tau exponents (-1 for null) and the single scale of one exact vector."""
    mod = 2 * d
    exps, scales = [], set()
    for k, amp in enumerate(amp_list):
        if amp is None:
            exps.append(-1)
            continue
        if not isinstance(amp, dict) or any(
            type(amp.get(key)) is not int for key in ("num", "mod", "scale_sqrt_dim")
        ):
            raise ValueError(
                f"{where} amplitude {k} must be null or an object with integer "
                "num, mod and scale_sqrt_dim"
            )
        if amp["mod"] != mod:
            raise ValueError(f"{where}: every amplitude needs mod = 2*dim = {mod}")
        if amp["scale_sqrt_dim"] not in (0, 1):
            # d entries of modulus d**(-s/2) make a unit vector only for s = 0 or 1
            raise ValueError(f"{where} amplitude {k}: scale_sqrt_dim must be 0 or 1")
        exps.append(amp["num"] % mod)
        scales.add(amp["scale_sqrt_dim"])
    if len(scales) != 1:
        raise ValueError(f"{where}: needs a single scale_sqrt_dim, got {sorted(scales)}")
    return exps, scales.pop()


def _numeric_row(amp_list: list, where: str) -> list:
    """[re, im] pairs of one numeric vector, checked to be pairs of finite floats."""
    for k, amp in enumerate(amp_list):
        if not (
            isinstance(amp, list)
            and len(amp) == 2
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in amp)
        ):
            raise ValueError(f"{where} amplitude {k} must be an [re, im] pair of finite numbers")
    return amp_list


def mubset_from_doc(doc: dict) -> MubSet:
    """The set a mubset_to_doc document describes; ValueError names any malformed field."""
    if not isinstance(doc, dict):
        raise ValueError("set document must be an object")
    d = doc.get("dim")
    if type(d) is not int or d < 2:
        raise ValueError(f"dim must be an integer >= 2, got {d!r}")
    exact = doc.get("exact")
    if type(exact) is not bool:
        raise ValueError(f"exact must be true or false, got {exact!r}")
    if not _list(doc.get("bases"), "bases"):
        raise ValueError("set document has no bases")
    bases = []
    for index, basis_doc in enumerate(doc["bases"]):
        if not isinstance(basis_doc, dict) or not isinstance(basis_doc.get("label"), str):
            raise ValueError(f"basis {index} must be an object with a string label")
        label = _parse_label(basis_doc["label"])
        vector_docs = _list(basis_doc.get("vectors"), f"basis {label}: vectors")
        if len(vector_docs) != d:
            raise ValueError(f"basis {label} has {len(vector_docs)} vectors, expected {d}")
        rows = []
        for n, amp_list in enumerate(vector_docs):
            where = f"basis {label} vector {n}"
            if len(_list(amp_list, where)) != d:
                raise ValueError(f"{where} has {len(amp_list)} amplitudes, expected {d}")
            rows.append(_exact_row(amp_list, d, where) if exact else _numeric_row(amp_list, where))
        class_labels = None
        if "class_labels" in basis_doc:
            class_labels = _parse_class_labels(basis_doc["class_labels"], d, f"basis {label}")
        if exact:
            exps, scales = zip(*rows)
            bases.append(MubBasis.from_arrays(d, label, exponents=exps, scales=scales,
                                              class_labels=class_labels))
        else:
            amps = np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
            bases.append(MubBasis.from_arrays(d, label, amps, class_labels=class_labels))
    return MubSet(d, tuple(bases))


def mubset_to_csv(mub_set: MubSet) -> str:
    """One row per vector across all bases, columns interleaved re/im."""
    return _csv(mub_set.amps.reshape(-1, mub_set.dim))
