"""Eigenbases of the phased shift, complete sets for prime d, Gauss sums.

For each parameter a the phased shift has a non-degenerate spectrum and its
eigenvectors form a flat orthonormal basis whose component at storage slot s
carries the tau exponent t(d-t)a + 2tn with t = d-1-s (storage keeps the
highest-weight component first).  The computational basis plus the d
eigenbases form a complete set of d+1 mutually unbiased bases exactly when
d is prime.  The verifier decides the defining overlap condition of exact
bases on integers where the paper's Gauss-sum rule applies: monomial bases,
and quadratic-phase bases, recognized by one form over Z_b**e with d = b**e
(b = d, or b = p at d = p**e; cyclo owns the digit order of Z_b**e).  It
uses the cyclotomic norm certificate for other exact bases, and floats for
float ones.

Bases and sets are stored as read-only arrays with vectors as rows: a basis
holds tau exponents (d, d) or None, and per-vector scales (d,); a set stacks
them once into (m, d, d) and (n, d).  An exact basis or set has one stored
form, its exponents and scales: its amps are derived from them on first
read, so the float and the exact data cannot drift apart, and building and
verifying an exact set derives none.  A float basis, and a set with one, is
given its amps.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .cyclo import (
    DEFAULT_TOL,
    CyclotomicSum,
    PhaseExponent,
    _frozen,
    _phase_table,
    _points,
    _unit_slots,
    check_tolerance,
    conjugate_phases,
    is_prime,
    _prime_power,
)
from .report import VerificationReport

#: Bytes of the buffer that verify_set writes one block's gathered conjugate
#: phase grids, Grams and moduli into, at 48 bytes per Gram entry; it sets
#: how many basis pairs one batched Gram covers (at least one), and how many
#: pairs of quadratic bases have their radicals counted at once (3d bytes
#: each), so memory stays bounded whatever d and the number of bases.  Each
#: pair stays its own d x d x d product: OpenBLAS splits products from about
#: 65536 multiply-adds (d = 40) over threads, and such split products stalled
#: for about 250 ms at a time on a 2-CPU machine.
GRAM_BLOCK_BYTES = 1 << 20

#: Largest dimension that build_complete_set and build_composite_set accept:
#: a set of d + 1 bases holds (d + 1) d**2 int64 exponents and complex128
#: amps, 17 MB and 34 MB at d = 128, and d = 1000 would need about 24 GB.
MAX_DIM = 128


def _amplitudes(d: int, exps, scales) -> np.ndarray:
    """tau**exps / d**(scales/2), an exact 0 at exponent -1: the amps of exact rows.

    exps has the slots on its last axis, in -1..2d-1 (_check_exponents), and
    scales one value per row (or one for all rows).  The phases are row k =
    1 of conjugate_phases(d), read as the certificate reads them, so the
    Gram of two exact bases' amps is their conjugate-1 certificate Gram over
    d**((sa+sb)/2); exponent -1 indexes its last column, the zero.
    """
    amps = conjugate_phases(d)[0][exps]
    amps /= np.sqrt(float(d) ** np.asarray(scales))[..., None]
    return amps


def _check_exponents(d: int, exps: np.ndarray) -> None:
    """ValueError unless every tau exponent lies in -1..2d-1.

    _amplitudes indexes a row of 2d + 1 columns with them, so an exponent
    outside this range would be stored as a wrong amplitude or not at all.
    """
    if exps.size and (exps.min() < -1 or exps.max() >= 2 * d):
        raise ValueError(f"tau exponents must lie in -1..{2 * d - 1} (-1 for an exact zero)")


def _assign(obj, **fields):
    """obj, an instance of a frozen dataclass, with fields set as given, unchecked.

    A field that is a cached_property, such as amps, is filled this way too.
    """
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class MubVector:
    """One basis vector: its amps and, for an exact vector, their tau exponents.

    exact_exponents uses -1 for an exactly-zero component; every nonzero
    component is tau**k / d**(scale_sqrt_dim/2).  MubBasis reads an exact
    vector by its exponents and scale alone.
    """

    dim: int
    a: int | str
    n: int
    amps: np.ndarray
    exact_exponents: np.ndarray | None = None
    scale_sqrt_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen(self.amps, np.complex128))
        if self.exact_exponents is not None:
            object.__setattr__(self, "exact_exponents", _frozen(self.exact_exponents, np.int64))


@dataclass(frozen=True, eq=False, init=False)
class MubBasis:
    """An ordered orthonormal basis labeled 's', an integer a, or 'class:<id>'.

    exponents (d, d) holds the vectors' tau exponents as rows, in -1..2d-1
    (-1 for an exact zero), or None when the basis has no exact form;
    scales (d,) each vector's scale_sqrt_dim; class_labels (m, 2, e) the
    Weyl labels of a composite basis's commuting class, rows x and z of each
    member, or None; amps (d, d) the vectors as complex rows.  All are
    read-only.  An exact basis is stored as its exponents and scales alone,
    which it copies, and exponents outside -1..2d-1 raise ValueError; its
    amps are tau**e / d**(s/2) of them, derived on first read, so no basis
    holds amps that differ from its exponents.  A float basis is given its
    amps.  MubBasis(dim, label, vectors) stacks MubVectors once, the exact
    ones by their exponents and scales; a set's bases view its rows.
    """

    dim: int
    label: int | str
    exponents: np.ndarray | None
    scales: np.ndarray
    class_labels: np.ndarray | None

    def __init__(self, dim: int, label, vectors, class_labels=None):
        exact = all(v.exact_exponents is not None for v in vectors)
        self._store(
            dim,
            label,
            None if exact else np.stack([v.amps for v in vectors]),
            np.stack([v.exact_exponents for v in vectors]) if exact else None,
            [v.scale_sqrt_dim for v in vectors],
            class_labels,
        )

    @classmethod
    def from_arrays(cls, dim: int, label, amps=None, exponents=None, scales=1, class_labels=None):
        """An exact basis from its exponents and scales, or a float one from its amps.

        scales may be one value for every vector.  Passing both amps and
        exponents raises ValueError: an exact basis's amps follow from its
        exponents.
        """
        basis = cls.__new__(cls)
        basis._store(dim, label, amps, exponents, scales, class_labels)
        return basis

    def _store(self, dim, label, amps, exponents, scales, class_labels):
        if (amps is None) == (exponents is None):
            raise ValueError(
                f"basis {label} takes exactly one of amps and exponents: "
                "an exact basis's amps follow from its exponents"
            )
        # the exact form is copied, so no caller can change it under the amps derived from it
        exps = None if exponents is None else np.array(exponents, dtype=np.int64)
        if np.shape(amps if exps is None else exps) != (dim, dim):
            raise ValueError(f"basis {label} must hold {dim} vectors of length {dim}")
        vector_scales = np.empty(dim, np.int64)
        vector_scales[...] = scales
        if class_labels is not None:
            class_labels = _frozen(class_labels, np.int64)
            if class_labels.ndim != 3 or class_labels.shape[1] != 2:
                raise ValueError(f"basis {label}: class_labels must have shape (members, 2, e)")
        if exps is None:
            _assign(self, amps=_frozen(amps, np.complex128))
        else:
            _check_exponents(dim, exps)
            exps = _frozen(exps, np.int64)
        _assign(self, dim=dim, label=label, exponents=exps,
                scales=_frozen(vector_scales, np.int64), class_labels=class_labels)

    @cached_property
    def amps(self) -> np.ndarray:
        """The vectors as rows (d, d), read-only: tau**e / d**(s/2) of an exact basis."""
        amps = _amplitudes(self.dim, self.exponents, self.scales)
        amps.setflags(write=False)
        return amps

    @property
    def vectors(self) -> tuple:
        """Read-only MubVector views of the rows."""
        rows = [None] * self.dim if self.exponents is None else self.exponents
        return tuple(
            MubVector(self.dim, self.label, n, amps, exps, int(scale))
            for n, (amps, exps, scale) in enumerate(zip(self.amps, rows, self.scales))
        )

    def as_array(self) -> np.ndarray:
        """Vectors as rows."""
        return self.amps

    @property
    def exact(self) -> bool:
        return self.exponents is not None


def _check_labels(labels) -> None:
    """ValueError unless the basis labels are unique and there is at least one."""
    if len(set(labels)) != len(labels):
        raise ValueError(f"basis labels must be unique, got {list(labels)}")
    if not labels:
        raise ValueError("a set needs at least one basis")


@dataclass(frozen=True, eq=False, init=False)
class MubSet:
    """Bases of one dimension, stored as stacks in basis order.

    labels (n,) names the bases; scales (n, d) stacks their scales;
    exponents (m, d, d) stacks those of the m bases that have them, which
    exact_bases (n,) marks; class_labels holds one (members, 2, e) array or
    None per basis.  amps (n, d, d) stacks every basis's vectors, and bases
    (n,) holds one MubBasis per row, made of read-only views of the stacks,
    its amps a row of amps.  An exact set's amps are derived from its
    exponents and scales on first read, and its bases on first read of
    bases, so building and verifying it makes neither; a set with a float
    basis is given its amps when it is built, the exact rows derived then.
    MubSet(dim, bases) copies the bases' arrays into its stacks.
    """

    dim: int
    labels: tuple
    forced: bool
    exponents: np.ndarray = field(repr=False)
    scales: np.ndarray = field(repr=False)
    exact_bases: np.ndarray = field(repr=False)
    class_labels: tuple | np.ndarray = field(repr=False)

    def __init__(self, dim: int, bases, forced: bool = False):
        labels = [b.label for b in bases]
        _check_labels(labels)
        for b in bases:
            if b.dim != dim:
                raise ValueError(f"basis {b.label} has dim {b.dim}, expected {dim}")
        exact = np.array([b.exact for b in bases])
        amps = None
        if not exact.all():
            amps = np.empty((len(bases), dim, dim), np.complex128)
            amps[~exact] = [b.amps for b in bases if not b.exact]
        self._assemble(
            dim, labels,
            np.array([b.exponents for b in bases if b.exact], np.int64).reshape(-1, dim, dim),
            np.array([b.scales for b in bases], np.int64), exact, amps,
            tuple(b.class_labels for b in bases), forced,
        )

    @classmethod
    def _of_stacks(cls, dim: int, labels, exponents, scales, amps=None, class_labels=None,
                   forced: bool = False):
        """The set of bases labels from its stacks, exponents (m, d, d) of the first m.

        scales (n, d) is int64; amps, needed when m < n, an (n, d, d)
        complex128 whose rows m.. hold the float bases' amps; class_labels
        one row per basis.  The set is assembled in one pass, with the
        checks of MubSet: labels unique and at least one, the stacks' shapes
        and exponents in -1..2d-1.  exact_bases marks the first m.  The set
        keeps the arrays uncopied, so the caller must not write to them
        afterwards.
        """
        n, m = len(labels), len(exponents)
        if (m > n or (amps is None and m < n) or exponents.shape[1:] != (dim, dim)
                or scales.shape != (n, dim)):
            raise ValueError(f"need exponents (m <= {n}, {dim}, {dim}), scales ({n}, {dim}), "
                             "and amps if m < n")
        _check_labels(labels)
        _check_exponents(dim, exponents)
        mub_set = cls.__new__(cls)
        mub_set._assemble(dim, labels, exponents, scales, np.arange(n) < m, amps,
                          (None,) * n if class_labels is None else class_labels, forced)
        return mub_set

    def _assemble(self, dim, labels, exponents, scales, exact, amps, class_labels, forced):
        """Store the checked stacks read-only; amps, given iff a basis is float, gets the
        exact rows here and fills the amps cache."""
        if amps is not None:
            amps[exact] = _amplitudes(dim, exponents, scales[exact])
            amps.setflags(write=False)
            _assign(self, amps=amps)
        for array in (exponents, scales, exact):
            array.setflags(write=False)
        _assign(self, dim=dim, labels=tuple(labels), forced=forced, exponents=exponents,
                scales=scales, exact_bases=exact, class_labels=class_labels)

    @cached_property
    def amps(self) -> np.ndarray:
        """The (n, d, d) stack of every basis's vectors, read-only: tau**e / d**(s/2) of an
        exact set, derived on first read."""
        amps = _amplitudes(self.dim, self.exponents, self.scales)
        amps.setflags(write=False)
        return amps

    @cached_property
    def bases(self) -> tuple:
        """One MubBasis per row, made of read-only views of the stacks on first read."""
        rows = iter(self.exponents)
        return tuple(
            _assign(MubBasis.__new__(MubBasis), dim=self.dim, label=label, amps=a,
                    exponents=next(rows) if e else None, scales=s, class_labels=c)
            for label, a, s, e, c in zip(self.labels, self.amps, self.scales,
                                         self.exact_bases.tolist(), self.class_labels)
        )

    @property
    def exact(self) -> bool:
        return bool(self.exact_bases.all())


# -- construction ------------------------------------------------------------


def eigenvalue_exponent(d: int, a: int, n: int) -> PhaseExponent:
    """tau exponent of the eigenvalue attached to (a, n): (d-1)a - 2n mod 2d."""
    return PhaseExponent((d - 1) * a - 2 * n, 2 * d)


def _check_index(d: int, name: str, value: int) -> None:
    if not 0 <= value <= d - 1:
        raise ValueError(f"{name} must be in 0..{d - 1}, got {value}")


def _eigen_exponents(d: int, a, n) -> np.ndarray:
    """tau exponents t(d-t)a + 2tn mod 2d at slots s = d-1-t, broadcast over a and n.

    The last axis runs over slots.  t(d-t) is even for odd d, so every
    exponent is then an integer q-power.
    """
    t = d - 1 - np.arange(d)
    return (t * (d - t) * np.asarray(a)[..., None] + 2 * t * np.asarray(n)[..., None]) % (2 * d)


def build_mub_vector(d: int, a: int, n: int) -> MubVector:
    """The eigenvector of the phased shift with eigenvalue exponent (d-1)a - 2n."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_index(d, "a", a)
    _check_index(d, "n", n)
    exps = _eigen_exponents(d, a, n)
    return MubVector(d, a, n, _amplitudes(d, exps, 1), exps, scale_sqrt_dim=1)


def build_basis(d: int, a: int) -> MubBasis:
    """The orthonormal eigenbasis of the phased shift at parameter a."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_index(d, "a", a)
    return MubBasis.from_arrays(d, a, exponents=_eigen_exponents(d, a, np.arange(d)))


def spherical_basis(d: int) -> MubBasis:
    """The computational basis (identity rows), labeled 's'."""
    return MubBasis.from_arrays(d, "s", exponents=np.eye(d, dtype=np.int64) - 1, scales=0)


def build_complete_set(d: int, force: bool = False) -> MubSet:
    """The computational basis plus the d eigenbases; complete iff d is prime.

    Non-prime d is refused (the cyclic recipe cannot reach d+1 pairwise
    unbiased bases there); force=True builds the family anyway so the
    failure can be exhibited, and the resulting set is marked forced.  The
    (d+1, d, d) exponents and the scales are built once for the whole set,
    which derives its amps and bases from them on first read.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported bound {MAX_DIM}")
    prime = is_prime(d)
    if not prime and not force:
        raise ValueError(
            f"d = {d} is not prime: the cyclic recipe yields d+1 pairwise "
            "unbiased bases only in prime dimension; pass force=True (mubkit set "
            "--force) to build the (incomplete) family anyway"
        )
    exps = np.empty((d + 1, d, d), np.int64)
    # the computational basis: exponent 0 on the diagonal, -1 (an exact zero) elsewhere
    exps[0] = -1
    exps[0].flat[:: d + 1] = 0
    exps[1:] = _eigen_exponents(d, np.arange(d)[:, None], np.arange(d))
    scales = np.ones((d + 1, d), np.int64)
    scales[0] = 0
    return MubSet._of_stacks(d, ("s", *range(d)), exps, scales, forced=not prime)


# -- verification ------------------------------------------------------------


def overlap_matrix(a_basis: MubBasis, b_basis: MubBasis) -> np.ndarray:
    """All inner products <u_i|v_j> between two bases."""
    return a_basis.amps.conj() @ b_basis.amps.T


def _block_pairs(n_conj: int, d: int) -> int:
    """Basis pairs whose Grams at n_conj conjugates fit GRAM_BLOCK_BYTES, maybe 0.

    48 bytes per Gram entry hold the entry and its share of the two
    gathered grids.
    """
    return GRAM_BLOCK_BYTES // (48 * n_conj * d * d)


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple:
    """The pairs i <= j of n bases, row by row: read-only index arrays i and j (P,) and
    the mask same = (i == j) (P,)."""
    i, j = np.triu_indices(n)
    table = i, j, i == j
    for array in table:
        array.setflags(write=False)
    return table


def _deviations(amps: np.ndarray, same: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Worst float deviation of each pair (i, j) (P,) of n bases, a (P,) array.

    amps is (n, d, d); same (P,) marks the pairs of one basis, whose
    overlaps must form the identity; all others need moduli 1/sqrt(d).  The
    pairs go in blocks of _block_pairs, each written straight into the result.
    """
    d = amps.shape[1]
    deviation = np.empty(len(i))
    size = max(1, _block_pairs(1, d))
    for k in range(0, len(i), size):
        pairs = slice(k, k + size)
        overlaps = np.matmul(amps[i[pairs]].conj(), amps[j[pairs]].transpose(0, 2, 1))
        block = deviation[pairs]
        np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max(axis=(1, 2), out=block)
        one = same[pairs]
        block[one] = np.abs(overlaps[one] - np.eye(d)).max(axis=(1, 2))
    return deviation


def _certificate_residuals(exps, scales, same, phases, i, j) -> tuple:
    """Worst conjugate residuals and float deviations of the pairs (i, j) (P,) of m exact bases.

    exps (m, d, d) and scales (m, d) stack the bases' exponents and scales;
    same (P,) marks the pairs of one basis; phases holds the rows of
    conjugate_phases(d) to evaluate, row 0 conjugate 1.  For amplitudes
    tau**e / d**(s/2) the scaled overlaps z are cyclotomic integers, and
    |z|**2 = d**(sa+sb-1) across bases (z = d**sa * I within one) holds
    exactly iff the residual is below 1/2 in every conjugate sigma_k
    (mubkit.cyclo).  A target below 1 (sa = sb = 0) has no algebraic-integer
    solution, so its residual is inf.  Conjugate 1 over d**((sa+sb)/2) is
    the Gram of the bases' amps (see _amplitudes), so its moduli also give
    each pair's float deviation as _deviations defines it.  Returns both as
    (P,) arrays.  Each block of _block_pairs pairs is one batched Gram
    (K, B, d, d) over the K conjugates and its pairs, written straight into
    them; its gathered phase grids, Gram, moduli and scaled conjugate-1
    moduli share one work buffer that every block reuses, so memory stays
    bounded.
    """
    d, n_k, n_pairs = exps.shape[1], len(phases), len(i)
    step = max(1, min(n_pairs, _block_pairs(n_k, d)))
    size = n_k * step * d * d
    work = np.empty(3 * size, np.complex128)
    eye = np.eye(d)
    weights = float(d) ** scales
    # the least scale of each basis: a pair whose least scales sum below 1 has a target below 1
    least = scales.min(axis=1)
    residual, deviation = np.empty((2, n_pairs))
    for k in range(0, n_pairs, step):
        pairs = slice(k, k + step)
        bi, bj = i[pairs], j[pairs]
        shape = (n_k, len(bi), d, d)
        used = n_k * len(bi) * d * d
        # exponent -1 wraps to the zero column of conjugate_phases
        row_grid = np.take(phases, exps[bi], axis=1, mode="wrap", out=work[:used].reshape(shape))
        np.conjugate(row_grid, out=row_grid)
        col_grid = np.take(phases, exps[bj], axis=1, mode="wrap",
                           out=work[size : size + used].reshape(shape))
        grams = np.matmul(row_grid, col_grid.transpose(0, 1, 3, 2),
                          out=work[2 * size : 2 * size + used].reshape(shape))
        one = same[pairs]
        # diag(d**s) per pair of one basis
        targets = eye * weights[bi[one]][:, None]
        one_residuals = np.abs(grams[:, one] - targets).max(axis=(0, 2, 3))
        # the grids are spent, so the moduli overwrite the row grid, and
        # conjugate 1's scaled moduli the row grid's second half
        moduli = np.abs(grams, out=work.view(np.float64)[:used].reshape(shape))
        products = weights[bi][:, :, None] * weights[bj][:, None, :]
        scaled = np.sqrt(products, out=work.view(np.float64)[used : used + products.size]
                         .reshape(products.shape))
        one_deviations = np.abs(grams[0, one] / scaled[one] - eye).max(axis=(1, 2))
        np.divide(moduli[0], scaled, out=scaled)
        scaled -= 1 / np.sqrt(d)
        block = deviation[pairs]
        np.abs(scaled, out=scaled).max(axis=(1, 2), out=block)
        block[one] = one_deviations
        np.square(moduli, out=moduli)
        products /= d
        moduli -= products
        block = residual[pairs]
        np.abs(moduli, out=moduli).max(axis=(0, 2, 3), out=block)
        block[least[bi] + least[bj] < 1] = np.inf
        block[one] = one_residuals
    return residual, deviation


@lru_cache(maxsize=None)
def _form_layout(d: int, b: int, e: int) -> tuple:
    """What _form_exponents writes and _form_keys reads over Z_b**e, d = b**e.

    That is b; u = d/b, the exponent of one unit of w; the points (d, e),
    in cyclo._points order; linear (d, d), 2u r.j at points r and j;
    squares (e * e, d), with A.ravel() @ squares = u (j.Aj + b diag(A).j)
    at point j; reads (e + d, 1 + e), the flat indices of row 0's slot 0
    and slots e_i + e_k (digitwise mod b), then of each row's slot 0 and
    slots e_k; the slots of the e_k (e,); weights (e,), the slots of the
    unit vectors of Z_2b**e, which code its points; and the sorted codes of
    2 Z_b**e (d,).
    """
    points, units = _points(b, e), _unit_slots(b, e)
    eye = np.eye(e, dtype=np.int64)
    u = d // b
    squares = u * (points[:, :, None] * points[:, None] + b * eye * points[:, :, None])
    rows = np.concatenate([np.zeros(e, np.int64), np.arange(d)])[:, None]
    slots = np.concatenate([(eye[:, None] + eye[None]) % b @ units, np.tile(units, (d, 1))])
    reads = rows * d + np.pad(slots, ((0, 0), (1, 0)))
    weights = _unit_slots(2 * b, e)
    arrays = (points, 2 * u * points @ points.T, squares.reshape(d, -1).T, reads, units, weights,
              np.sort(2 * points @ weights))
    return (b, u, *(_frozen(a, np.int64) for a in arrays))


def _form_exponents(forms, rows, slot0, b, u, points, linear, squares, *_) -> np.ndarray:
    """tau exponents (m, d, d) of m quadratic bases over Z_b**e, the rest being _form_layout.

    Basis k has the symmetric form forms[k] = A (e, e); its row n has the
    point r of slot rows[k, n] (rows None: the n-th point) and exponent
    slot0 at point 0 ((m, d, 1), or one for all), so the entry at point j
    is u w_n(j) + slot0, w_n(j) = j.Aj + l_n.j with l_n = b diag(A) + 2r.
    """
    exps = (forms.reshape(len(forms), -1) @ squares)[:, None] + slot0
    exps = exps + (linear if rows is None else linear.take(rows, axis=0))
    # the remainder by floor division, which numpy vectorizes and int64 % it does not
    wraps = exps // (2 * u * b)
    wraps *= 2 * u * b
    exps -= wraps
    return exps


def _form_keys(exps: np.ndarray, b, u, points, linear, squares, reads, units, weights, evens):
    """Which of m flat bases are quadratic over Z_b**e, and their radical keys (m, d).

    exps (m, d, d) holds the bases' exponents, and the rest is _form_layout.
    Let f be each basis's exponents less its rows' slot-0 exponents, mod 2d.
    A basis is quadratic if every entry of f is u w, with w_n(j) = j.Aj +
    l_n.j mod 2b at the point j of row n's slot, for a symmetric A, b A_kk +
    l_nk even, so that w_n is a function on Z_b**e, and the l_n pairwise
    distinct, which is the basis's orthonormality: the l_n - b diag(A) mod
    2b run over 2 Z_b**e once each.  A is read off row 0 as 2 A_ik =
    w_0(e_i + e_k) - w_0(e_i) - w_0(e_k) mod 2b, so A mod b, which is all
    that matters, and 2r_n = l_n - b diag(A); _form_exponents must write
    every entry from them.  Key h is the slot of A h mod b: two quadratic
    bases over one Z_b**e agree at key h iff h lies in the radical of A_a - A_b.
    """
    m, e, two_d = len(exps), len(units), 2 * u * b
    raw = exps.reshape(m, -1)[:, reads]
    w = (raw[..., 1:] - raw[..., :1]) % two_d
    if u > 1:
        w //= u
    at_units, first = w[:, e:], w[:, e]
    # an odd 2 A_ik is floored here and fails below at slot e_i + e_k
    form = (w[:, :e] - first[:, :, None] - first[:, None]) % (2 * b) // 2
    # 2r_n = w_n(e_k) - (b + 1) A_kk mod 2b; an odd entry fails the check on its codes
    lifts = (at_units - (b + 1) * form.reshape(m, 1, -1)[..., :: e + 1]) % (2 * b)
    ok = (np.sort(lifts @ weights) == evens).all(axis=1)
    # every prediction is a multiple of u past its row's slot 0, so an entry of f that is not fails
    predicted = _form_exponents(form, lifts // 2 @ units, raw[:, e:, :1], b, u, points, linear,
                                squares)
    ok &= (predicted == exps).all(axis=(1, 2))
    return ok, points @ form % b @ units


#: Integer rules by basis code (see _basis_codes): 0 takes the certificate,
#: 1 passes, 2 fails with deviation 1.0, 3 counts the radical.  _OWN_RULE
#: decides a basis's own pair, _CROSS_RULE a pair of two bases not compared
#: against the identity: a monomial basis against a flat one, and two
#: quadratic bases of one kind.
_OWN_RULE = np.array([0, 1, 2, 0, 1, 1])
_CROSS_RULE = np.array([[0, 0, 0, 0, 0, 0],
                        [0, 0, 0, 1, 1, 1],
                        [0, 0, 0, 1, 1, 1],
                        [0, 1, 1, 0, 0, 0],
                        [0, 1, 1, 0, 3, 0],
                        [0, 1, 1, 0, 0, 3]])


@lru_cache(maxsize=None)
def _recognizers(d: int) -> tuple:
    """(code, _form_layout) of each quadratic kind tried at d, in order.

    The field kind (code 5), over Z_p**e, is tried at d = p**e with e >= 2,
    first, since the composite sets there are of that kind; the cyclic kind
    (code 4), over Z_d, at every d >= 2.
    """
    if d < 2:
        return ()
    split = _prime_power(d)
    field = () if split is None or split[1] < 2 else ((5, _form_layout(d, *split)),)
    return (*field, (4, _form_layout(d, d, 1)))


def _basis_codes(exps: np.ndarray, scales: np.ndarray) -> tuple:
    """The code (m,) of each of m exact bases and the radical keys (m, d) of the quadratic ones.

    Codes: 1 a monomial basis (every row of scale 0 with one exponent >= 0)
    whose rows use distinct slots, 2 one whose rows share a slot, 3 a flat
    basis (every exponent >= 0, every scale 1), 4 a cyclic and 5 a field
    quadratic basis (flat, and of one form over Z_d or over Z_p**e at d =
    p**e, see _form_keys and _recognizers), 0 any other.
    """
    m, d = exps.shape[:2]
    support = exps >= 0
    # each row's support size and scale in one number: 1 for a monomial row, 2d + 1 a flat one
    row_codes = support.sum(axis=2) + (d + 1) * scales
    monomial = (row_codes == 1).all(axis=1)
    flat = (row_codes == 2 * d + 1).all(axis=1)
    code = 3 * flat
    # d rows of one slot each use distinct slots iff they use every slot
    code[monomial] = 2 - support[monomial].any(axis=1).all(axis=1)
    keys = np.zeros((m, d), np.min_scalar_type(d))
    rows = flat.nonzero()[0]
    # a run of flat bases, as in every built set, is read in place
    run = rows.size and rows[-1] - rows[0] == rows.size - 1
    flats = exps[rows[0] : rows[-1] + 1] if run else exps[rows]
    for kind, layout in _recognizers(d):
        if not rows.size:
            break
        ok, found = _form_keys(flats, *layout)
        if ok.all():
            code[rows], keys[rows] = kind, found
            break
        code[rows[ok]], keys[rows[ok]] = kind, found[ok]
        rows, flats = rows[~ok], flats[~ok]
    return code, keys


def _integer_verdicts(exps, scales, i, j, same) -> tuple:
    """Which exact pairs (i, j) (P,) the integer rules decide, their verdicts and deviations.

    exps (m, d, d) and scales (m, d) stack m exact bases; same (P,) marks the
    pairs whose target is the identity.  Decided, as three (P,) arrays (see
    _basis_codes for the kinds of basis):
    - a monomial basis's own pair: it passes iff no two rows share a slot,
      with deviation 1.0 if they do;
    - a monomial basis against a flat one: every overlap has modulus
      1/sqrt(d), so it passes;
    - a quadratic basis's own pair: it passes;
    - two quadratic bases of one kind, not same: every overlap's squared
      modulus is 0 or r/d, r = |rad| the size of the radical of the
      difference of their forms (the Gauss-sum rule), counted as the keys
      at which they agree; it passes iff r = 1.
    A passing pair's deviation is 0.0, a biased quadratic pair's max(1,
    sqrt(r) - 1)/sqrt(d): the deviations of the exact overlaps.  Radicals
    are counted in blocks, so memory stays bounded.
    """
    d = exps.shape[1]
    code, keys = _basis_codes(exps, scales)
    ci = code[i]
    rule = _CROSS_RULE[ci, code[j]]
    rule[same] = 0
    own = i == j
    rule[own] = _OWN_RULE[ci[own]]
    biased = rule == 2
    deviation = biased.astype(float)
    q = (rule == 3).nonzero()[0]
    step = max(1, GRAM_BLOCK_BYTES // (3 * d))
    for k in range(0, len(q), step):
        block = q[k : k + step]
        radical = (keys[i[block]] == keys[j[block]]).sum(axis=1)
        if (radical > 1).any():
            biased[block] = radical > 1
            deviation[block] = (radical > 1) * np.maximum(1, np.sqrt(radical) - 1) / math.sqrt(d)
    return rule > 0, ~biased, deviation


def _pair_verdicts(d, amps, exps, scales, exact, same, i, j, tol):
    """Deviations, verdicts and counts of the pairs (i, j) (P,) of n bases of dimension d.

    amps (n, d, d), None when every basis is exact, and scales (n, d) stack
    the bases, exps (m, d, d) the exponents of the bases exact (n,) marks;
    same (P,) marks the pairs whose target is the identity.  verify_set
    passes every pair i <= j (_pair_table), verify_unbiased its one pair.
    There are three routes: pairs with a non-exact basis go to _deviations,
    the only reader of amps, which an all-exact set never calls; exact pairs
    that _integer_verdicts decides are settled there, on integers; every
    other exact pair goes to _certificate_residuals at all K conjugates.
    Returns (P,) deviations and verdicts, an exact pair's verdict being its
    exact one, and the counts that verify_set reports.  Exponents lie in
    -1..2d-1, which MubBasis and MubSet._of_stacks enforce: conjugate_phases
    has columns for 0..2d-1 and a zero column that -1 wraps to.
    """
    m = len(exps)
    counts = {"conjugates": None, "gram_pairs": 0, "integer_pairs": 0}
    deviation, passed = np.empty(len(i)), np.empty(len(i), dtype=bool)
    if exact.all():
        # a slice costs less than a mask, and every pair is written below
        pairs, exact_scales, rank = slice(None), scales, None
    else:
        pairs = exact[i] & exact[j]
        floats = ~pairs
        deviation[floats] = _deviations(amps, same[floats], i[floats], j[floats])
        np.less(deviation, tol, out=passed)
        counts["gram_pairs"] = int(np.count_nonzero(floats))
        if not m:
            return deviation, passed, counts
        exact_scales, rank = scales[exact], np.cumsum(exact) - 1
    # the exact pairs, by exact basis
    ei, ej, esame = i[pairs], j[pairs], same[pairs]
    if rank is not None:
        ei, ej = rank[ei], rank[ej]
    decided, exact_passed, exact_deviation = _integer_verdicts(exps, exact_scales, ei, ej, esame)
    todo = (~decided).nonzero()[0]
    conjugates = 0
    if todo.size:
        phases = conjugate_phases(d)
        residual, exact_deviation[todo] = _certificate_residuals(
            exps, exact_scales, esame[todo], phases, ei[todo], ej[todo]
        )
        exact_passed[todo] = residual < 0.5
        counts["gram_pairs"] += len(todo)
        conjugates = len(phases)
    deviation[pairs] = exact_deviation
    passed[pairs] = exact_passed
    counts.update(conjugates=conjugates, integer_pairs=len(ei) - len(todo))
    return deviation, passed, counts


def verify_unbiased(
    a_basis: MubBasis, b_basis: MubBasis, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the unbiasedness condition between two bases.

    For distinct bases every overlap modulus must equal 1/sqrt(d); for a
    basis against itself the Gram matrix must be the identity.  This is the
    two-basis case of verify_set's kernel, with its rules, its deviation
    rule and its counts in details.  max_residual is the pair's deviation:
    0.0 for a pair decided unbiased on integers, max(1, sqrt(r) - 1)/sqrt(d)
    for a biased pair of quadratic bases with radical of size r, 1.0 for a
    monomial basis whose rows share a slot, and the float deviation of the
    overlaps otherwise.  Two distinct objects with one label are compared
    against the identity, by the certificate if both are exact.
    """
    check_tolerance(tol)
    if a_basis.dim != b_basis.dim:
        raise ValueError("dimension mismatch between bases")
    d = a_basis.dim
    bases = (a_basis,) if a_basis is b_basis else (a_basis, b_basis)
    same = bool(a_basis.label == b_basis.label)
    exact = a_basis.exact and b_basis.exact
    deviation, passed, counts = _pair_verdicts(
        d, None if exact else np.stack([b.amps for b in bases]),
        np.array([b.exponents for b in bases if exact], dtype=np.int64).reshape(-1, d, d),
        np.stack([b.scales for b in bases]), np.full(len(bases), exact), np.array([same]),
        np.zeros(1, dtype=np.intp), np.full(1, len(bases) - 1), tol,
    )
    return VerificationReport(
        kind="unbiasedness",
        passed=bool(passed[0]),
        tolerance=tol,
        max_residual=float(deviation[0]),
        details={
            "dim": d,
            "a": a_basis.label,
            "b": b_basis.label,
            "same_basis": same,
            "exact": bool(passed[0]) if exact else None,
            **counts,
        },
    )


def verify_set(mub_set: MubSet, tol: float = DEFAULT_TOL) -> VerificationReport:
    """All-pairs (and per-basis Gram) verification of a candidate MUB set.

    A pair with a non-exact basis is decided by its float deviation against
    tol, a pair of exact bases by an exact verdict alone, on one of two
    routes.  The integer route (see _integer_verdicts) takes the own pair
    of a monomial basis (every row of scale 0 with one exponent >= 0, like
    the computational basis), which passes iff no two rows share a slot; a
    monomial basis of scale 0 against a flat basis of scale 1, which is
    unbiased by inspection; and the pairs of quadratic-phase bases of one
    kind, recognized on integers by one form over Z_b**e (see _form_keys:
    b = d is the cyclic kind, b = p at d = p**e the field kind), which pass
    iff the radical of the difference of their forms is 0, the paper's
    Gauss-sum rule: gcd(A_a - A_b, d) = 1 for the cyclic kind, det(A_a -
    A_b) != 0 mod p for the field kind.  Every set mubkit builds is decided
    there.  Every other exact pair passes iff every Galois conjugate of its
    scaled overlaps meets its target within 1/2 (see
    _certificate_residuals), all K conjugates evaluated.

    Each pair's deviation is that of its exact overlaps on the integer
    route: 0.0 when it passes, max(1, sqrt(r) - 1)/sqrt(d) for a biased
    quadratic pair with radical of size r, and 1.0 for a monomial basis
    whose rows share a slot.  Any other pair's deviation is the float
    deviation of its overlaps, read from the certificate's conjugate-1 Gram
    for an exact pair.  max_residual is the worst deviation over every pair,
    so it is 0.0 for a set decided unbiased on integers alone.  details
    counts the "conjugates" evaluated per certified pair (0 if no pair
    needs the certificate, None if no basis is exact), the "gram_pairs"
    evaluated by a float or certificate Gram, in blocks sized by
    GRAM_BLOCK_BYTES, and the "integer_pairs"; "complete" is whether the
    set has dim + 1 bases.  A forced set's "note" says its bases need not
    be mutually unbiased: they come from the prime recipe applied where it
    does not hold.
    """
    check_tolerance(tol)
    labels = mub_set.labels
    n = len(labels)
    i, j, same = _pair_table(n)
    deviation, passed, counts = _pair_verdicts(
        mub_set.dim, None if mub_set.exact else mub_set.amps, mub_set.exponents,
        mub_set.scales, mub_set.exact_bases, same, i, j, tol,
    )
    failing = []
    if not passed.all():
        failing = [
            {"a": labels[i[q]], "b": labels[j[q]], "max_residual": float(deviation[q])}
            for q in np.flatnonzero(~passed).tolist()
        ]
    details = {
        "dim": mub_set.dim,
        "n_bases": n,
        "complete": n == mub_set.dim + 1,
        "n_pairs": n * (n - 1) // 2,
        "failing_pairs": failing,
        "exact": mub_set.exact,
        **counts,
    }
    if mub_set.forced:
        details["note"] = "forced non-prime family: its bases need not be mutually unbiased"
    return VerificationReport(
        kind="mub_set",
        passed=not failing,
        tolerance=tol,
        max_residual=float(deviation.max()),
        details=details,
    )


# -- Gauss sums ---------------------------------------------------------------


def gauss_sum_magnitude(
    d: int, a: int, b: int, n_alpha: int, n_beta: int
) -> tuple[CyclotomicSum, float]:
    """The structured exponential sum sum_k q**(k(d-k)(a-b)/2 + k(n_a - n_b)).

    Returns its squared magnitude as an exact cyclotomic integer together
    with the numeric magnitude.  For prime d the squared magnitude is d**2,
    0 or d according to the index pattern.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    for name, value in (("a", a), ("b", b), ("n_alpha", n_alpha), ("n_beta", n_beta)):
        _check_index(d, name, value)
    k = np.arange(d)
    if d % 2:
        assert not (k * (d - k) * (a - b) % 2).any()
    exps = (k * (d - k) * (a - b) + 2 * k * (n_alpha - n_beta)) % (2 * d)
    total = CyclotomicSum.from_exponent_counts(exps, d)
    numeric = abs(complex(_phase_table(2 * d)[exps].sum()))
    return total.abs_squared(), numeric


def gauss_sum_expected_sq(d: int, a: int, b: int, n_alpha: int, n_beta: int) -> int:
    """Expected squared magnitude under the sum rule: d**2, 0, or d."""
    if a == b:
        return d * d if n_alpha == n_beta else 0
    return d


# -- eigen-relation -----------------------------------------------------------


def eigen_relation_residual(d: int, a: int, n: int) -> int:
    """Exponent-arithmetic residual of (phased shift) v = lambda v; 0 means exact.

    Counts the component slots where the tau exponent of the matrix action
    differs from eigenvalue-exponent + component-exponent (mod 2d).
    """
    vec = build_mub_vector(d, a, n)
    exps = vec.exact_exponents
    two_d = 2 * d
    lam = eigenvalue_exponent(d, a, n).value
    lhs = np.empty(d, dtype=np.int64)
    lhs[: d - 1] = (2 * np.arange(1, d) * a + exps[1:]) % two_d
    lhs[d - 1] = exps[0]
    rhs = (lam + exps) % two_d
    return int(np.count_nonzero(lhs - rhs))


def eigen_relation_numeric_residual(d: int, a: int, n: int) -> float:
    from .weyl import build_v

    vec = build_mub_vector(d, a, n)
    lam = eigenvalue_exponent(d, a, n).evaluate()
    return float(np.abs(build_v(d, a).entries @ vec.amps - lam * vec.amps).max())
