"""Complete MUB sets in prime-power dimension d = p**e from tensor products.

Tensor products of shift-type factors alone have degenerate spectra as soon
as e > 1, so single-operator eigenbases are not well defined.  The fix used
here augments the label set with clock-type factors: every non-identity
label (x, z) in (F_p^e)^2 names the operator with per-slot factor
V_{a_i}**x_i Z**z_i, and two labeled operators commute exactly iff the
symplectic form x.z' - z.x' vanishes mod p.

The p**e + 1 commuting classes are the Desarguesian spread over F_{p^e}
(Wootters & Fields 1989; Bandyopadhyay et al. 2002), written in closed
form: the all-clock class {(0, z)} first, then one graph {(x, S_g x)} per
field element g, where S_g[i, j] = Tr(g alpha**(i+j)) is symmetric (so the
class is isotropic) and S_g - S_g' is invertible for g != g' (so the
classes partition all p**(2e) - 1 labels).  Each graph class has the
stabilizer states omega**(-1/2 j.Rj + b.j) (i-powers for p = 2) as its
joint eigenbasis, with R = S + diag(a_params); the all-clock class gives
the computational basis.  A label is an int array (2, e), rows x and z.
The spread forms and the class labels (p**e + 1, p**e - 1, 2, e) are
cached per (p, e), in immutable memory; build_composite_set writes every
graph basis in one broadcast over the forms, through mub's writer of
quadratic bases, and keeps the stacks it wrote per (p, e, a_params) in a
store bounded in bytes (_STACK_STORE).  Correctness rests on the
unbiasedness verifier, not on the construction: every build is checked.
Only the operators (_label_rows, build_w, commutation_soundness) import
weyl, so building a set loads composite and mub alone.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cmp_to_key, lru_cache

import numpy as np

from .cyclo import DEFAULT_TOL, _immutable, _phase_table, _points, _unit_slots, is_prime
from .mub import (MAX_DIM, MubBasis, MubSet, _complete_stacks, _form_exponents, _form_layout,
                  _pair_table, _pair_verdicts)
from .report import VerificationReport

#: Bytes the store of composite stacks may hold, counted over its arrays;
#: the least recently used entries are evicted past it.  An entry at d =
#: 128 holds 4.36 MB (4.23 MB of int16 exponents), so seven of them fit, as
#: do all 89 sets of d = 4 to 27 (2.4 MB).
STACK_STORE_BYTES = 32 << 20

#: (p, e, a_params) -> the exponents (d+1, d, d) as int16 and the scales
#: (d+1, d) of a set that passed its construction check, in immutable
#: memory (cyclo._immutable), least recently used first.
_STACK_STORE = OrderedDict()


class ConstructionError(RuntimeError):
    """A constructed set failed verification; carries the offending pair."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


def _check_dim(p: int, e: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if p**e > MAX_DIM:
        raise ValueError(f"dimension {p**e} exceeds the supported bound {MAX_DIM}")


def _check_params(p: int, e: int, a_params) -> tuple:
    _check_dim(p, e)
    a_params = tuple(a_params)
    if len(a_params) != e or not all(isinstance(v, (int, np.integer)) and 0 <= v < p
                                     for v in a_params):
        raise ValueError(f"a_params must be length {e} with integer entries in 0..{p - 1}")
    return tuple(map(int, a_params))


def _check_labels(labels, p: int, e: int, ndim: int) -> np.ndarray:
    """Integer labels, one (2, e) at ndim 2 or members (m, 2, e) at 3, as int64 reduced mod p."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.ndim != ndim or labels.shape[-2:] != (2, e):
        shape = "(2, e)" if ndim == 2 else "(m, 2, e)"
        raise ValueError(f"labels must be integers of shape {shape}, rows x and z, with e = {e}; "
                         f"got {labels.dtype} of shape {labels.shape}")
    return labels.astype(np.int64) % p


# -- operators ----------------------------------------------------------------


def _label_rows(p: int, a_params, xs, zs) -> "_Rows":
    """Rows of the labelled operators, int x and z (..., e): the tensor product in closed form.

    Row r, a point of F_p^e in cyclo._points order, holds its entry at the
    column r + x, digitwise mod p.  Its tau exponent mod 2d is the sum over
    factors i of d/p times factor i's exponent mod 2p at its row r_i, since
    tau_p = tau_d**(d/p).
    """
    from .weyl import _monomial_rows, _Rows

    e = xs.shape[-1]
    d, digits = p**e, _points(p, e)
    slots = _monomial_rows(p, np.asarray(a_params), xs, zs, 0)
    exp = (d // p) * slots[..., np.arange(e), digits].sum(axis=-1) % (2 * d)
    col = (digits + xs[..., None, :]) % p @ _unit_slots(p, e)
    return _Rows(col, exp, np.ones_like(exp))


def build_w(p: int, e: int, label, a_params) -> "OperatorMatrix":
    """Tensor product with per-slot factor V_{a_i}**x_i Z**z_i, label (2, e) the rows x and z.

    Pure shift labels (z = 0, x = 1..1) give the plain tensor product of
    phased shifts; clock-type factors are the auxiliary content that resolves
    spectral degeneracy.
    """
    from .weyl import OperatorMatrix

    a_params = _check_params(p, e, a_params)
    x, z = _check_labels(label, p, e, 2)
    return OperatorMatrix.from_exact(_label_rows(p, a_params, x, z).exact())


@dataclass(frozen=True)
class DegeneracyReport:
    """Eigenvalue multiset of a phased permutation, each distinct value once by turn from 0."""

    dim: int
    eigenvalues: tuple
    multiplicities: tuple
    degenerate: bool


def degeneracy_report(matrix: "OperatorMatrix") -> DegeneracyReport:
    """The exact spectrum of a phased permutation, from its cycles; flags any multiplicity > 1.

    matrix must be exact, one entry in each row and column, as every
    operator mubkit builds is, else ValueError.  A cycle of length L whose
    entries multiply to tau**c contributes the turns (c/2d + k)/L, k < L,
    as reduced integer pairs, so counts are exact.
    """
    support = None if matrix.exact is None else matrix.exact >= 0
    if support is None or (support.sum(axis=0) != 1).any() or (support.sum(axis=1) != 1).any():
        raise ValueError("input must be an exact phased permutation: a unitary with one "
                         "tau-power entry in each row and each column")
    d = matrix.dim
    col = support.argmax(axis=1).tolist()
    exp = matrix.exact[np.arange(d), col].tolist()
    counts, seen = {}, [False] * d
    for start in range(d):
        row, length, c = start, 0, 0
        while not seen[row]:
            seen[row] = True
            row, length, c = col[row], length + 1, c + exp[row]
        for k in range(length):
            turn, turns = c % (2 * d) + 2 * d * k, 2 * d * length
            key = turn // math.gcd(turn, turns), turns // math.gcd(turn, turns)
            counts[key] = counts.get(key, 0) + 1
    order = sorted(counts, key=cmp_to_key(lambda s, t: s[0] * t[1] - t[0] * s[1]))
    values = tuple(complex(np.exp(2j * np.pi * n / m)) for n, m in order)
    mults = tuple(counts[key] for key in order)
    return DegeneracyReport(d, values, mults, any(m > 1 for m in mults))


# -- class partition -----------------------------------------------------------


@lru_cache(maxsize=None)
def _spread_forms(p: int, e: int) -> np.ndarray:
    """S_g[i, j] = Tr(g alpha**(i+j)) mod p for every g in F_{p^e}, (p**e, e, e), immutable.

    F_{p^e} is F_p[alpha] for the first monic irreducible polynomial of
    degree e (coefficients in lexicographic order); g = sum_k g_k alpha**k
    acts as M_g = sum_k g_k C**k with C the companion matrix, and the field
    trace of g alpha**m is tr(M_g C**m) mod p.
    """
    field = _points(p, e)
    for low in field:
        comp = np.zeros((e, e), dtype=np.int64)
        comp[1:, :-1] = np.eye(e - 1, dtype=np.int64)
        comp[:, -1] = -low % p
        powers = [np.eye(e, dtype=np.int64)]
        for _ in range(2 * e - 2):
            powers.append(powers[-1] @ comp % p)
        mult = np.einsum("gk,kij->gij", field, np.stack(powers[:e])) % p
        # a field has no zero divisors: g * h != 0 for all nonzero g, h
        if (mult[1:] @ field[1:].T % p).any(axis=1).all():
            break
    shifted = np.stack(powers)[np.add.outer(np.arange(e), np.arange(e))]
    return _immutable(np.einsum("gab,ijba->gij", mult, shifted) % p, np.int64)


@lru_cache(maxsize=None)
def _class_labels(p: int, e: int) -> np.ndarray:
    """Every class's member labels, (p**e + 1, p**e - 1, 2, e), immutable.

    Entry [c, m] holds member m of class c as rows x and z: class 0 is
    {(0, z)} and class 1 + g is {(x, S_g x)}, each over the nonzero points
    in lexicographic order.
    """
    nonzero = _points(p, e)[1:]
    labels = np.zeros((p**e + 1, p**e - 1, 2, e), dtype=np.int64)
    labels[0, :, 1] = nonzero
    labels[1:, :, 0] = nonzero
    labels[1:, :, 1] = nonzero @ _spread_forms(p, e) % p
    return _immutable(labels, np.int64)


def partition_commuting_classes(p: int, e: int) -> np.ndarray:
    """Partition all non-identity labels into p**e + 1 commuting classes: _class_labels.

    Class 0 is the all-clock class {(0, z)}; class 1 + n is the graph
    {(x, S_g x) : x != 0} of the n-th field element g in lexicographic
    order, so class 1 (g = 0) is the shift-only class.  Members are listed
    in lexicographic label order.
    """
    _check_dim(p, e)
    return _class_labels(p, e)


# -- joint eigenbases -----------------------------------------------------------


def _class_form(cid: int, members: np.ndarray, p: int, e: int) -> np.ndarray | None:
    """The symmetric S with members (m, 2, e) = {(x, Sx) : x != 0}, or None for the all-clock class.

    Raises ValueError for any other class.
    """
    d = p**e
    xs, zs = members[:, 0], members[:, 1]
    symplectic = (xs @ zs.T - zs @ xs.T) % p
    if symplectic.any():
        i, j = np.argwhere(symplectic)[0]
        raise ValueError(f"class {cid}: members {i} and {j} fail to commute")
    weights = _unit_slots(p, e)
    if not xs.any() and sorted(zs @ weights) == list(range(1, d)):
        return None
    index = xs @ weights
    if sorted(index) != list(range(1, d)):
        raise ValueError(
            f"class {cid} leaves joint eigenspaces unresolved: it must be the "
            "all-clock class or list every nonzero shift part x exactly once"
        )
    # column k of S is the z paired with the unit vector x = e_k, whose index is weights[k]
    form = zs[np.argsort(index)[weights - 1]].T
    if not np.array_equal(xs @ form.T % p, zs) or not np.array_equal(form, form.T):
        raise ValueError(f"class {cid} is not a graph {{(x, Sx)}} with S symmetric")
    return form


def _stabilizer_exponents(p: int, e: int, forms: np.ndarray, a_params: tuple) -> np.ndarray:
    """tau exponents (G, d, d) of the joint eigenbases of G graph classes with forms (G, e, e).

    With R = S + diag(a_params), they are the quadratic bases of form -R
    mod p over Z_p**e whose row n has the n-th point (mub._form_exponents).
    """
    forms = (np.diag([-v for v in a_params]) - forms) % p
    return _form_exponents(forms, None, 0, *_form_layout(p**e, p, e))


def joint_eigenbasis(members, p: int, e: int, a_params, cid: int) -> MubBasis:
    """Orthonormal simultaneous eigenbasis of every operator of a class, members (m, 2, e).

    Both kinds are exact.  The all-clock class gives the computational
    basis.  A graph class {(x, Sx)} gives the stabilizer states with R = S +
    diag(a_params) mod p: vector n, for b the n-th point of F_p^e, has
    component omega**(-1/2 j.Rj + b.j) / sqrt(d) at point j (cyclo._points
    order).  For odd p the 1/2 is the inverse of 2 mod p; for p = 2 the
    quadratic term is an i-power, -j.Rj mod 4 with R lifted to 0/1.
    The basis, labelled class:<cid>, holds the members as class_labels.
    """
    a_params = _check_params(p, e, a_params)
    members = _check_labels(members, p, e, 3)
    d = p**e
    label = f"class:{cid}"
    form = _class_form(cid, members, p, e)
    if form is None:
        exps = np.eye(d, dtype=np.int64) - 1
        return MubBasis.from_arrays(d, label, exponents=exps, scales=0, class_labels=members)
    exps = _stabilizer_exponents(p, e, form[None], a_params)[0]
    return MubBasis.from_arrays(d, label, exponents=exps, class_labels=members)


# -- complete sets ---------------------------------------------------------------


def build_composite_set(p: int, e: int, a_params=None) -> MubSet:
    """p**e + 1 pairwise-unbiased bases in dimension p**e.

    Every class of the spread contributes its joint eigenbasis, in the order
    and with the members of partition_commuting_classes; the all-clock
    class, first, contributes the computational basis.  Every basis is
    exact: the set's exponent stack is written once per (p, e, a_params),
    the graph bases in one broadcast from the spread forms, and the set
    derives its amps and its bases, which view its rows and its class
    labels, on first read.  Before the set is returned, every pair i <= j is
    decided by verify_set's pair kernel (mub._pair_verdicts), on integers;
    no report is built unless a pair fails, which raises ConstructionError
    naming the first failing pair in verify_set's order and its residual.

    A set that passes is stored (_STACK_STORE): its exponents as int16, as
    they lie in -1..2d-1 <= 255, and its scales, immutable, at most
    STACK_STORE_BYTES in all, the least recently used evicted first.  A
    later build with the same parameters widens the stored exponents to its
    own int64 stack and shares the scales; no verdict is stored, so every
    build is checked as above.  Unlike mub._prime_set, whose 31 keys
    bound it, the store has a key per phase vector, so it is bounded in
    bytes, and int16 keeps its d = 4 to 27 sets small.
    """
    a_params = _check_params(p, e, (0,) * e if a_params is None else a_params)
    d = p**e
    labels = [f"class:{c}" for c in range(d + 1)]
    key = p, e, a_params
    stored = _STACK_STORE.get(key)
    if stored is None:
        flat = _stabilizer_exponents(p, e, _spread_forms(p, e), a_params)
        exps, scales = _complete_stacks(d, flat)
    else:
        _STACK_STORE.move_to_end(key)
        exps, scales = stored[0].astype(np.int64), stored[1]
    mub_set = MubSet._of_stacks(d, labels, exps, scales, class_labels=_class_labels(p, e))
    i, j, kind = _pair_table(d + 1)
    # every basis is exact, so no float deviation is compared against DEFAULT_TOL
    deviation, passed, _ = _pair_verdicts(d, None, mub_set.exponents, mub_set.scales,
                                          mub_set.exact_bases, kind, i, j, DEFAULT_TOL)
    if not passed.all():
        q = np.argmin(passed)  # the first failing pair in verify_set's order
        pair = (labels[i[q]], labels[j[q]])
        raise ConstructionError(
            f"composite construction failed unbiasedness for pair "
            f"({pair[0]}, {pair[1]}) with residual {deviation[q]:.3e}",
            pair=pair,
        )
    if stored is None:
        _store_stacks(key, exps, scales)
    return mub_set


def _store_stacks(key, exps, scales) -> None:
    """Store a checked set's stacks under key, then evict to STACK_STORE_BYTES."""
    _STACK_STORE[key] = _immutable(exps, np.int16), _immutable(scales, np.int64)
    held = sum(array.nbytes for entry in _STACK_STORE.values() for array in entry)
    while held > STACK_STORE_BYTES:
        held -= sum(array.nbytes for array in _STACK_STORE.popitem(last=False)[1])


def commutation_soundness(classes, p: int, e: int, a_params) -> VerificationReport:
    """Every two operators of each class commute, decided by the group law, and so do their labels.

    classes holds one member array (m, 2, e) per class, as the array of
    partition_commuting_classes does.  Each member's rows give its shift x
    and slope beta (_affine_rows, b = p), and W_A W_B = tau**(beta_B.x_A -
    beta_A.x_B) W_B W_A; a member of another form fails.  The residual is
    0.0 when every pair commutes, else the largest |1 - tau**k| of a
    failing pair.
    """
    from .weyl import _affine_rows

    a_params = _check_params(p, e, a_params)
    table = _phase_table(2 * p**e)
    commute, form_ok, worst = True, True, 0.0
    for members in classes:
        members = _check_labels(members, p, e, 3)
        xs, zs = members[:, 0], members[:, 1]
        form_ok &= not ((xs @ zs.T - zs @ xs.T) % p).any()
        shift, _, beta, ok = _affine_rows(_label_rows(p, a_params, xs, zs), p, e)
        cross = beta @ shift.T
        phases = (cross.T - cross) % len(table)
        commute &= bool(ok.all()) and not phases.any()
        worst = max(worst, float(np.abs(1 - table[phases]).max(initial=0.0)))
    return VerificationReport(
        kind="commutation_soundness",
        passed=commute and form_ok,
        tolerance=None,
        max_residual=worst,
        details={"p": p, "e": e, "symplectic_forms_vanish": form_ok},
    )
