"""Deterministic serialization of matrices, basis sets, and reports.

Output must be byte-identical across runs for identical inputs, so floats
are always rendered with 17 significant digits and keys keep construction
order; the stock json encoder's shortest-repr floats are deliberately not
used.  Parsing uses the stdlib.

dumps dispatches on each value's exact type: floats, ints, strings, bools
and None through the _SCALARS table, dicts and lists by identity.  Only
another type (a numpy scalar, a tuple, a subclass) takes the isinstance
path in _native.  A dict key's encoded form is memoized for the length of
one dumps call, so a key repeated across thousands of rows is encoded once.
The CLI writes set documents and the sumrule table through the *_chunks
functions instead, which give the same bytes without building the dicts.

mubset_from_doc validates each basis in whole-basis passes over its
amplitudes (_checked_vectors) and falls back to checking one amplitude at a
time only to name the first malformed one.  A numeric vector must also have
a finite squared norm: by Cauchy-Schwarz its overlaps are then finite too.
mub is imported there, so a process that only writes matrices or reports
never loads it.
"""

import json
import math
import sys
from itertools import chain, compress, product, repeat
from json.encoder import encode_basestring_ascii
from operator import is_not, itemgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .cyclo import _frozen, _prime_power

if TYPE_CHECKING:
    from .mub import MubSet
    from .weyl import OperatorMatrix


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite float in serialized output")
    return f"{x:.17g}"


def dumps(obj) -> str:
    """Render a document of dicts/lists/scalars as deterministic JSON."""
    pieces: list[str] = []
    _emit(obj, pieces, {})
    return "".join(pieces)


def _native(obj):
    """(value, type) to write for a numpy scalar, a tuple or a subclass of a JSON type."""
    if isinstance(obj, (int, np.integer)):
        return int(obj), int
    if isinstance(obj, (float, np.floating)):
        return float(obj), float
    if isinstance(obj, str):
        return obj, str
    if isinstance(obj, (list, tuple)):
        return obj, list
    if isinstance(obj, dict):
        return obj, dict
    raise TypeError(f"cannot serialize {type(obj)!r}")


#: The encoder of each scalar type, looked up by exact type.
_SCALARS = {
    float: format_float,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _emit(obj, pieces: list[str], keys: dict) -> None:
    """Append obj's JSON to pieces; keys memoizes each str key's encoded form."""
    kind = type(obj)
    if kind not in _SCALARS and kind is not dict and kind is not list:
        obj, kind = _native(obj)
    encode = _SCALARS.get(kind)
    if encode is not None:
        pieces.append(encode(obj))
        return
    # each member is followed by ","; the last one is overwritten by the closing bracket
    if kind is dict:
        pieces.append("{")
        for key, value in obj.items():
            encoded = keys.get(key) if type(key) is str else None
            if encoded is None:
                encoded = encode_basestring_ascii(str(key)) + ":"
                if type(key) is str:
                    keys[key] = encoded
            pieces.append(encoded)
            encode = _SCALARS.get(type(value))
            if encode is None:
                _emit(value, pieces, keys)
            else:
                pieces.append(encode(value))
            pieces.append(",")
        close = "}"
    else:
        pieces.append("[")
        for item in obj:
            encode = _SCALARS.get(type(item))
            if encode is None:
                _emit(item, pieces, keys)
            else:
                pieces.append(encode(item))
            pieces.append(",")
        close = "]"
    if obj:
        pieces[-1] = close
    else:
        pieces.append(close)


# -- matrices -----------------------------------------------------------------


def matrix_to_doc(matrix: "OperatorMatrix") -> dict:
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


def matrix_to_csv(matrix: "OperatorMatrix") -> str:
    """One row per matrix row, columns interleaved re/im."""
    return _csv(matrix.entries)


# -- basis sets -----------------------------------------------------------------


def _amplitude_exact_doc(exponent: int, modulus: int, scale: int):
    if exponent < 0:
        return None
    return {"num": int(exponent), "mod": modulus, "scale_sqrt_dim": scale}


def _class_labels_doc(class_labels: np.ndarray) -> list:
    return [{"x": x, "z": z} for x, z in class_labels.tolist()]


def mubset_to_doc(mub_set: "MubSet", exact: bool) -> dict:
    """{dim, exact, bases: [{label, vectors: [[amplitude...]]}]}.

    Amplitudes are {num, mod, scale_sqrt_dim} objects (meaning
    tau**num / d**(scale/2), null for zero) in exact mode and [re, im]
    pairs otherwise.  Composite class labels are embedded per basis.  This
    is the document as dicts; the CLI writes the same bytes through
    mubset_json_chunks, which never holds the whole tree.
    """
    if exact and not mub_set.exact:
        raise ValueError("exact serialization requested for a set without exact amplitudes")
    mod = 2 * mub_set.dim
    bases = []
    for b, (label, members) in enumerate(zip(mub_set.labels, mub_set.class_labels)):
        if exact:
            vectors = [
                [_amplitude_exact_doc(k, mod, scale) for k in row]
                for row, scale in zip(mub_set.exponents[b].tolist(), mub_set.scales[b].tolist())
            ]
        else:
            vectors = mub_set.amps[b].view(np.float64).reshape(mub_set.dim, mub_set.dim, 2).tolist()
        basis_doc = {"label": str(label), "vectors": vectors}
        if members is not None:
            basis_doc["class_labels"] = _class_labels_doc(members)
        bases.append(basis_doc)
    return {"dim": mub_set.dim, "exact": exact, "bases": bases}


def _parse_label(text: str) -> int | str:
    """The int text spells in canonical decimal, else text: str() of the label gives text back."""
    try:
        label = int(text)
    except ValueError:
        return text
    return label if str(label) == text else text


def _parse_class_labels(label_docs, d: int, where: str) -> np.ndarray:
    """The members (m, 2, e) of a class_labels list, rows x and z, read-only."""
    split = _prime_power(d)
    if split is None:
        raise ValueError(f"class_labels need a prime-power dim, got {d}")
    p, e = split
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
    members = np.array([(lbl["x"], lbl["z"]) for lbl in label_docs], dtype=np.int64)
    return _frozen(members.reshape(-1, 2, e), np.int64)


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


#: The JSON number types an [re, im] amplitude may hold (bool excluded).
_REAL_TYPES = frozenset((int, float))
_EXACT_FIELDS = itemgetter("num", "mod", "scale_sqrt_dim")


def _checked_vectors(vector_docs: list, d: int, exact: bool):
    """A basis's vectors, validated in whole-basis C-level passes; None if any check fails.

    Returns the (d, d) exponents (-1 for null) and the d scales of an exact
    basis, or the (d, d) complex amps of a numeric one.  None sends the
    basis through _vectors_one_by_one, which names the first bad field.
    """
    if set(map(type, vector_docs)) != {list} or set(map(len, vector_docs)) != {d}:
        return None
    amps = list(chain.from_iterable(vector_docs))
    if not exact:
        if set(map(type, amps)) != {list} or set(map(len, amps)) != {2}:
            return None
        values = list(chain.from_iterable(amps))
        # max >= abs(v) is False for nan, infinities and ints past the float range
        if not (_REAL_TYPES.issuperset(map(type, values))
                and all(map(sys.float_info.max.__ge__, map(abs, values)))):
            return None
        return np.array(values, dtype=np.float64).view(np.complex128).reshape(d, d)
    present = list(map(is_not, amps, repeat(None)))
    objs = list(compress(amps, present))
    if set(map(type, objs)) != {dict}:
        return None
    try:
        fields = list(map(_EXACT_FIELDS, objs))
    except KeyError:
        return None
    if set(map(type, chain.from_iterable(fields))) != {int}:
        return None
    try:
        nums, mods, scales = np.array(fields, dtype=np.int64).T
    except OverflowError:  # an exponent past int64, which the slow path reduces
        return None
    if not ((mods == 2 * d).all() and (scales <= 1).all() and (scales >= 0).all()):
        return None
    present = np.array(present)
    exps = np.full(d * d, -1, dtype=np.int64)
    exps[present] = nums % (2 * d)
    grid = np.full(d * d, -1, dtype=np.int64)
    grid[present] = scales
    grid = grid.reshape(d, d)
    # each vector needs one scale: its present entries' least equals their greatest
    row_scales = grid.max(axis=1)
    if not (row_scales == np.where(grid < 0, 2, grid).min(axis=1)).all():
        return None
    return exps.reshape(d, d), row_scales


def _vectors_one_by_one(vector_docs: list, d: int, exact: bool, label):
    """_checked_vectors's result, one amplitude at a time; ValueError names the first bad one."""
    rows = []
    for n, amp_list in enumerate(vector_docs):
        where = f"basis {label} vector {n}"
        if len(_list(amp_list, where)) != d:
            raise ValueError(f"{where} has {len(amp_list)} amplitudes, expected {d}")
        rows.append(_exact_row(amp_list, d, where) if exact else _numeric_row(amp_list, where))
    if exact:
        exps, scales = zip(*rows)
        return exps, scales
    return np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]


def _refuse_overflowing_vectors(mub_set: "MubSet") -> None:
    """ValueError naming the first vector whose squared norm is not finite, and the
    amplitude at which its running sum of |amplitude|**2 overflows."""
    with np.errstate(over="ignore"):
        norms = np.cumsum(mub_set.amps.real ** 2 + mub_set.amps.imag ** 2, axis=2)
    if np.isfinite(norms[..., -1]).all():
        return
    basis, n, k = np.argwhere(np.isinf(norms))[0]
    raise ValueError(
        f"basis {mub_set.labels[basis]} vector {n} amplitude {k}: the vector's "
        "squared norm overflows a float"
    )


def mubset_from_doc(doc: dict) -> "MubSet":
    """The set a mubset_to_doc document describes; ValueError names any malformed field.

    Each basis is validated on its own; the set is then assembled from one
    stack of exponents and scales (exact) or of amps (numeric), so an exact
    set derives no amps here.
    """
    from .mub import MubSet

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
    labels, rows, members = [], [], []
    for index, basis_doc in enumerate(doc["bases"]):
        if not isinstance(basis_doc, dict) or not isinstance(basis_doc.get("label"), str):
            raise ValueError(f"basis {index} must be an object with a string label")
        label = _parse_label(basis_doc["label"])
        vector_docs = _list(basis_doc.get("vectors"), f"basis {label}: vectors")
        if len(vector_docs) != d:
            raise ValueError(f"basis {label} has {len(vector_docs)} vectors, expected {d}")
        vectors = _checked_vectors(vector_docs, d, exact)
        if vectors is None:
            vectors = _vectors_one_by_one(vector_docs, d, exact, label)
        class_labels = None
        if "class_labels" in basis_doc:
            class_labels = _parse_class_labels(basis_doc["class_labels"], d, f"basis {label}")
        labels.append(label)
        rows.append(vectors)
        members.append(class_labels)
    # the stacks are allocated only now, when every basis is known to hold d x d amplitudes
    if exact:
        exps, scales = zip(*rows)
        return MubSet._of_stacks(d, labels, np.array(exps, np.int64), np.array(scales, np.int64),
                                 class_labels=tuple(members))
    mub_set = MubSet._of_stacks(d, labels, np.empty((0, d, d), np.int64),
                                np.ones((len(rows), d), np.int64),
                                np.array(rows, np.complex128), tuple(members))
    _refuse_overflowing_vectors(mub_set)
    return mub_set


def mubset_to_csv(mub_set: "MubSet") -> str:
    """One row per vector across all bases, columns interleaved re/im."""
    return _csv(mub_set.amps.reshape(-1, mub_set.dim))


# -- streamed documents ---------------------------------------------------------
#
# The CLI writes set documents and the sumrule table in chunks, byte for byte
# as dumps of their dict forms plus a newline, or as mubset_to_csv.  Each
# function below checks every value and builds its string tables when
# called, and returns an iterator of the chunks: a value that cannot be
# written raises before the first chunk exists, so no partial document is
# written.  The chunks are filled in by %-formatting one template per basis
# (or per value of a) with the gathered strings.


def _float_strings(mub_set: "MubSet"):
    """b -> the tuple of format_float strings of basis b's amps, rows first, re and im
    interleaved; ValueError, raised here, for a float that is not finite.

    Each distinct float64 bit pattern is formatted once.  Floats are told apart
    on their int64 view, so -0.0 keeps its sign.
    """
    values = mub_set.amps.reshape(-1).view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite float in serialized output")
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    strings = np.array(list(map(format_float, bits.view(np.float64).tolist())), dtype=object)
    index = index.reshape(len(mub_set.labels), -1)
    return lambda b: tuple(strings[index[b]].tolist())


def _set_chunks(mub_set: "MubSet", exact: bool, amplitude: str, strings) -> Iterator[str]:
    """The chunks of a set document, one per basis; strings(b) fills basis b's d * d
    copies of the amplitude template, rows first."""
    d = mub_set.dim
    row = "[" + ",".join([amplitude] * d) + "]"
    vectors = "[" + ",".join([row] * d) + "]"
    yield '{"dim":%d,"exact":%s,"bases":[' % (d, "true" if exact else "false")
    for b, (label, members) in enumerate(zip(mub_set.labels, mub_set.class_labels)):
        chunk = '{"label":%s,"vectors":%s' % (
            encode_basestring_ascii(str(label)), vectors % strings(b))
        if members is not None:
            chunk += ',"class_labels":' + dumps(_class_labels_doc(members))
        yield ("," if b else "") + chunk + "}"
    yield "]}\n"


def mubset_json_chunks(mub_set: "MubSet", exact: bool) -> Iterator[str]:
    """The chunks of dumps(mubset_to_doc(mub_set, exact)) + "\\n", one per basis.

    An exact amplitude is picked from a table of the strings of null and of
    tau**k / d**(s/2) for k in 0..2d-1, one table per scale s, by its
    exponent, which every MubSet holds in -1..2d-1.  A float amplitude is
    gathered from the strings of the set's distinct floats.  Raises
    ValueError for a float that is not finite.
    """
    if not exact:
        return _set_chunks(mub_set, exact, "[%s,%s]", _float_strings(mub_set))
    if not mub_set.exact:
        raise ValueError("exact serialization requested for a set without exact amplitudes")
    d, exps = mub_set.dim, mub_set.exponents
    scales, scale_rows = np.unique(mub_set.scales, return_inverse=True)
    # table[i, k + 1] is the amplitude of exponent k at the i-th scale, table[i, 0] null
    table = np.array(
        [["null", *(f'{{"num":{k},"mod":{2 * d},"scale_sqrt_dim":{s}}}' for k in range(2 * d))]
         for s in scales.tolist()],
        dtype=object,
    )
    scale_rows = scale_rows.reshape(-1, d, 1)
    return _set_chunks(mub_set, exact, "%s",
                       lambda b: tuple(table[scale_rows[b], exps[b] + 1].ravel().tolist()))


def mubset_csv_chunks(mub_set: "MubSet") -> Iterator[str]:
    """The chunks of mubset_to_csv(mub_set), one per basis; ValueError for a float
    that is not finite."""
    strings = _float_strings(mub_set)
    lines = (",".join(["%s"] * 2 * mub_set.dim) + "\n") * mub_set.dim
    return (lines % strings(b) for b in range(len(mub_set.labels)))


def sumrule_chunks(d: int, decided: dict, csv: bool) -> Iterator[str]:
    """The chunks of the Gauss-sum table at dimension d, one per value of a.

    Rows run over (a, b, n_alpha, n_beta) in 0..d-1, in lexicographic order,
    and decided maps each (a - b, n_alpha - n_beta) to the (magnitude,
    expected_sq, exact_match) of its rows.  The json form is dumps of
    {dim, entries: [{a, b, n_alpha, n_beta, magnitude, expected_sq,
    exact_match}...], pass} plus a newline, the csv form a header and one
    line per row.  Each key's fields are formatted once, here, so a
    non-finite magnitude raises ValueError before the first chunk.
    """
    if csv:
        head = "a,b,n_alpha,n_beta,magnitude,expected_sq,exact_match\n"
        prefix, sep, foot = "%d,%d,%d,%d,", "\n", "\n"
        tails = {key: f"{format_float(magnitude)},{expected},{'1' if ok else '0'}"
                 for key, (magnitude, expected, ok) in decided.items()}
    else:
        head = '{"dim":%d,"entries":[' % d
        prefix, sep = '{"a":%d,"b":%d,"n_alpha":%d,"n_beta":%d,', ","
        # dumps of the row's last three fields, less the opening brace
        tails = {key: dumps({"magnitude": magnitude, "expected_sq": expected,
                             "exact_match": ok})[1:]
                 for key, (magnitude, expected, ok) in decided.items()}
        foot = '],"pass":%s}\n' % dumps(all(ok for _, _, ok in decided.values()))
    rows = ((sep if a else "") + sep.join(
        prefix % (a, b, n_alpha, n_beta) + tails[a - b, n_alpha - n_beta]
        for b, n_alpha, n_beta in product(range(d), repeat=3)) for a in range(d))
    return chain([head], rows, [foot])
