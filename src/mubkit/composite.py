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
the computational basis.  The spread forms and the class labels, an int
array (p**e + 1, p**e - 1, 2, e), are cached per (p, e) and read-only;
build_composite_set writes every graph basis in one broadcast over the
forms, with no per-label objects.  Correctness rests on the unbiasedness
verifier, not on the construction.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import DEFAULT_TOL, _frozen, check_tolerance, is_prime
from .mub import MAX_DIM, MubBasis, MubSet, _points, verify_set
from .report import VerificationReport
from .weyl import OperatorMatrix, _equality, _monomial_rows, _Rows

#: Distance below which degeneracy_report merges two eigenvalues.
CLUSTER_TOL = 1e-8


class ConstructionError(RuntimeError):
    """A constructed set failed verification; carries the offending pair."""

    def __init__(self, message: str, pair=None):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class WeylLabel:
    """Exponent vectors (x, z) mod p for one tensor-product operator."""

    p: int
    e: int
    x: tuple
    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(int(v) % self.p for v in self.x))
        object.__setattr__(self, "z", tuple(int(v) % self.p for v in self.z))
        if len(self.x) != self.e or len(self.z) != self.e:
            raise ValueError("x and z must have length e")

    def is_identity(self) -> bool:
        return not any(self.x) and not any(self.z)

    def symplectic_form(self, other: "WeylLabel") -> int:
        acc = sum(xs * zo - zs * xo for xs, zo, zs, xo in zip(self.x, other.z, self.z, other.x))
        return acc % self.p

    def commutes_with(self, other: "WeylLabel") -> bool:
        return self.symplectic_form(other) == 0


@dataclass(frozen=True)
class CommutingClass:
    """p**e - 1 pairwise-commuting labels; one class supplies one basis."""

    id: int
    members: tuple

    def is_diagonal(self) -> bool:
        return all(not any(lbl.x) for lbl in self.members)


def _check_dim(p: int, e: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if p**e > MAX_DIM:
        raise ValueError(f"dimension {p**e} exceeds the supported bound {MAX_DIM}")


def _check_params(p: int, e: int, a_params) -> tuple:
    _check_dim(p, e)
    a_params = tuple(int(v) for v in a_params)
    if len(a_params) != e or any(not 0 <= v < p for v in a_params):
        raise ValueError(f"a_params must be length {e} with entries in 0..{p - 1}")
    return a_params


# -- operators ----------------------------------------------------------------


def _label_rows(p: int, a_params, xs, zs) -> _Rows:
    """Rows of the labelled operators, x and z stacked (..., e): the tensor product in closed form.

    Row R, with base-p digits r_i (slot 0 most significant), holds its entry
    at the column with digits (r_i + x_i) mod p.  Its tau exponent mod 2d is
    the sum over slots of d/p times the slot's exponent mod 2p at row r_i,
    since tau_p = tau_d**(d/p).
    """
    xs, zs = np.asarray(xs, dtype=np.int64), np.asarray(zs, dtype=np.int64)
    e = xs.shape[-1]
    d, digits = p**e, _points(p, e)
    slots = _monomial_rows(p, np.asarray(a_params), xs, zs, 0)
    exp = (d // p) * slots[..., np.arange(e), digits].sum(axis=-1) % (2 * d)
    col = (digits + xs[..., None, :]) % p @ p ** np.arange(e - 1, -1, -1)
    return _Rows(col, exp, np.ones_like(exp))


def build_w(p: int, e: int, label: WeylLabel, a_params) -> OperatorMatrix:
    """Tensor product with per-slot factor V_{a_i}**x_i Z**z_i.

    Pure shift labels (z = 0, x = 1..1) give the plain tensor product of
    phased shifts; clock-type factors are the auxiliary content that resolves
    spectral degeneracy.
    """
    a_params = _check_params(p, e, a_params)
    return OperatorMatrix.from_exact(_label_rows(p, a_params, label.x, label.z).exact())


@dataclass(frozen=True)
class DegeneracyReport:
    """Eigenvalue multiset of a unitary, with multiplicities."""

    dim: int
    eigenvalues: tuple
    multiplicities: tuple
    degenerate: bool


def degeneracy_report(matrix: OperatorMatrix) -> DegeneracyReport:
    """Cluster the spectrum of a unitary within CLUSTER_TOL and flag any multiplicity > 1."""
    if not matrix.is_unitary(DEFAULT_TOL):
        raise ValueError("input matrix is not unitary")
    eigs = np.linalg.eigvals(matrix.entries)
    clusters = _cluster_phases(eigs, CLUSTER_TOL)
    values = tuple(complex(eigs[c[0]]) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    return DegeneracyReport(matrix.dim, values, mults, any(m > 1 for m in mults))


def _cluster_phases(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of near-equal unit-modulus eigenvalues, sorted by angle.

    Eigenvalues sit on the unit circle, so clustering sorts by angle and
    merges across the 0/2pi seam when the extremes meet.
    """
    angles = np.mod(np.angle(eigs), 2 * np.pi)
    order = np.argsort(angles, kind="stable")
    clusters: list[list[int]] = []
    for idx in order:
        if clusters and abs(eigs[idx] - eigs[clusters[-1][-1]]) < tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1 and abs(eigs[clusters[0][0]] - eigs[clusters[-1][-1]]) < tol:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


# -- class partition -----------------------------------------------------------


@lru_cache(maxsize=None)
def _spread_forms(p: int, e: int) -> np.ndarray:
    """S_g[i, j] = Tr(g alpha**(i+j)) mod p for every g in F_{p^e}, (p**e, e, e), read-only.

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
    return _frozen(np.einsum("gab,ijba->gij", mult, shifted) % p, np.int64)


@lru_cache(maxsize=None)
def _class_labels(p: int, e: int) -> np.ndarray:
    """Every class's member labels, (p**e + 1, p**e - 1, 2, e), read-only.

    Entry [c, m] holds member m of class c as rows x and z: class 0 is
    {(0, z)} and class 1 + g is {(x, S_g x)}, each over the nonzero points
    in lexicographic order.
    """
    nonzero = _points(p, e)[1:]
    labels = np.zeros((p**e + 1, p**e - 1, 2, e), dtype=np.int64)
    labels[0, :, 1] = nonzero
    labels[1:, :, 0] = nonzero
    labels[1:, :, 1] = nonzero @ _spread_forms(p, e) % p
    return _frozen(labels, np.int64)


def partition_commuting_classes(p: int, e: int) -> list[CommutingClass]:
    """Partition all non-identity labels into p**e + 1 commuting classes.

    Class 0 is the all-clock class {(0, z)}; class 1 + n is the graph
    {(x, S_g x) : x != 0} of the n-th field element g in lexicographic
    order, so class 1 (g = 0) is the shift-only class.  Members are listed
    in lexicographic label order.
    """
    _check_dim(p, e)
    return [
        CommutingClass(cid, tuple(WeylLabel(p, e, x, z) for x, z in members))
        for cid, members in enumerate(_class_labels(p, e))
    ]


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
    weights = p ** np.arange(e - 1, -1, -1)
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

    With R = S + diag(a_params) mod p, vector n, for b the n-th point of
    F_p^e, has exponent 2d/p (b.j - 1/2 j.Rj) at index j (slot 0 most
    significant): the 1/2 is the inverse of 2 mod p for odd p, and for p = 2
    the quadratic term is an i-power, -j.Rj mod 4 with R lifted to 0/1.
    """
    d = p**e
    points = _points(p, e)
    quad = ((points @ ((forms + np.diag(a_params)) % p)) * points).sum(axis=2)
    # omega_p = tau**(2d/p); for p = 2 the phases live in Z_4, with tau**(d/2) = i
    mod, half = (4, 1) if p == 2 else (p, (p + 1) // 2)
    return (2 * d // mod) * ((mod // p) * (points @ points.T) - half * quad[:, None, :]) % (2 * d)


def joint_eigenbasis(cls: CommutingClass, p: int, e: int, a_params) -> MubBasis:
    """Orthonormal simultaneous eigenbasis of every operator in the class.

    Both kinds are exact.  The all-clock class gives the computational
    basis.  A graph class {(x, Sx)} gives the stabilizer states with R = S +
    diag(a_params) mod p: vector n, for b the n-th point of F_p^e, has
    component omega**(-1/2 j.Rj + b.j) / sqrt(d) at index j (slot 0 most
    significant).  For odd p the 1/2 is the inverse of 2 mod p; for p = 2
    the quadratic term is an i-power, -j.Rj mod 4 with R lifted to 0/1.
    The basis holds the members as class_labels (m, 2, e), rows x and z.
    """
    a_params = _check_params(p, e, a_params)
    d = p**e
    label = f"class:{cls.id}"
    members = np.array([(lbl.x, lbl.z) for lbl in cls.members], dtype=np.int64).reshape(-1, 2, e)
    form = _class_form(cls.id, members, p, e)
    if form is None:
        exps = np.eye(d, dtype=np.int64) - 1
        return MubBasis.from_arrays(d, label, exponents=exps, scales=0, class_labels=members)
    exps = _stabilizer_exponents(p, e, form[None], a_params)[0]
    return MubBasis.from_arrays(d, label, exponents=exps, class_labels=members)


# -- complete sets ---------------------------------------------------------------


def build_composite_set(p: int, e: int, a_params=None, tol: float = DEFAULT_TOL) -> MubSet:
    """p**e + 1 pairwise-unbiased bases in dimension p**e.

    Every class of the spread contributes its joint eigenbasis, in the order
    and with the members of partition_commuting_classes; the all-clock
    class, first, contributes the computational basis.  Every basis is
    exact: the set's exponent stack is written once, the graph bases in one
    broadcast from the spread forms, and each basis views its rows and its
    class labels.  The whole set is verified pairwise, on integers, before
    being returned; failure raises ConstructionError with the offending pair.
    """
    check_tolerance(tol)
    a_params = _check_params(p, e, (0,) * e if a_params is None else a_params)
    d = p**e
    exps = np.empty((d + 1, d, d), np.int64)
    exps[0] = np.eye(d, dtype=np.int64) - 1
    exps[1:] = _stabilizer_exponents(p, e, _spread_forms(p, e), a_params)
    scales = np.ones((d + 1, d), np.int64)
    scales[0] = 0
    mub_set = MubSet._of_stacks(d, [f"class:{c}" for c in range(d + 1)], exps, scales,
                                class_labels=_class_labels(p, e))
    report = verify_set(mub_set, tol)
    if not report.passed:
        pair = report.details["failing_pairs"][0]
        raise ConstructionError(
            f"composite construction failed unbiasedness for pair "
            f"({pair['a']}, {pair['b']}) with residual {pair['max_residual']:.3e}",
            pair=(pair["a"], pair["b"]),
        )
    return mub_set


def commutation_soundness(
    classes: list[CommutingClass], p: int, e: int, a_params, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Every two operators of each class commute, decided on their rows, and so do their labels.

    W_a W_b and W_b W_a are compared row by row, column and tau exponent.
    The residual is 0.0 when every pair commutes, else the largest entry
    modulus of a failing commutator; tol is validated and recorded, not read.
    """
    check_tolerance(tol)
    a_params = _check_params(p, e, a_params)
    commute, form_ok, worst = True, True, 0.0
    for cls in classes:
        labels = np.array([(lbl.x, lbl.z) for lbl in cls.members], dtype=np.int64).reshape(-1, 2, e)
        xs, zs = labels[:, 0], labels[:, 1]
        form_ok &= not ((xs @ zs.T - zs @ xs.T) % p).any()
        ops = _label_rows(p, a_params, xs, zs)
        for i in range(len(labels) - 1):
            one, rest = ops[i], ops[i + 1:]
            ab, ba = one @ rest, rest @ one
            for j in np.flatnonzero(~ab.same(ba).all(axis=-1)):
                commute = False
                worst = max(worst, _equality(ab[j], ba[j])[1])
    return VerificationReport(
        kind="commutation_soundness",
        passed=commute and form_ok,
        tolerance=tol,
        max_residual=worst,
        details={"p": p, "e": e, "symplectic_forms_vanish": form_ok},
    )
