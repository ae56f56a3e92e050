"""Eigenbases of the phased shift, complete sets for prime d, Gauss sums.

For each parameter a the phased shift has a non-degenerate spectrum and its
eigenvectors form a flat orthonormal basis whose component at storage slot s
carries the tau exponent t(d-t)a + 2tn with t = d-1-s (storage keeps the
highest-weight component first).  The computational basis plus the d
eigenbases form a complete set of d+1 mutually unbiased bases exactly when
d is prime; the verifier checks the defining overlap condition both
exactly (the cyclotomic norm certificate) and numerically.

Bases and sets are stored as read-only arrays with vectors as rows: a basis
holds amps (d, d), tau exponents (d, d) or None, and per-vector scales (d,);
a set stacks them once into (n, d, d) and (n, d).  An exact basis has one
stored form, its exponents and scales: its amps are always derived from
them, so the float and the exact data cannot drift apart.
"""

import math
from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .cyclo import (
    DEFAULT_TOL,
    CyclotomicSum,
    PhaseExponent,
    _frozen,
    _phase_table,
    check_tolerance,
    conjugate_phases,
    is_prime,
)
from .report import VerificationReport
from .weyl import build_v

#: Bytes of the buffer that verify_set writes one block's gathered conjugate
#: phase grids, Grams and moduli into, at 48 bytes per Gram entry; it sets
#: how many basis pairs one batched Gram covers (at least one), so memory
#: stays bounded whatever d and the number of bases.  It also picks the
#: route: two or more exact pairs whose Grams at all K conjugates fit one
#: block are all evaluated there (a built prime set up to d = 7).  Past
#: that, and for a lone pair, only the pairs that verify_set evaluates fill
#: blocks: one per orbit under the diagonal shifts (d + 1 for a built prime
#: set from d = 11, one block up to d = 27), or every pair of a set without
#: the symmetry.  Each pair stays its own d x d x d product: OpenBLAS splits
#: products from about 65536 multiply-adds (d = 40) over threads, and such
#: split products stalled for about 250 ms at a time on a 2-CPU machine.
GRAM_BLOCK_BYTES = 1 << 20


def _amplitudes(d: int, exps, scales, out=None) -> np.ndarray:
    """tau**exps / d**(scales/2), an exact 0 at exponent -1: the amps of exact rows.

    exps has the slots on its last axis and scales one value per row (or one
    for all rows); out is an optional complex128 array to write into.  The
    phases are row k = 1 of conjugate_phases(d), read as the certificate
    reads them, so the Gram of two exact bases' amps is their conjugate-1
    certificate Gram over d**((sa+sb)/2).
    """
    amps = np.take(conjugate_phases(d)[0], exps, mode="wrap", out=out)
    amps /= np.sqrt(float(d) ** np.asarray(scales))[..., None]
    return amps


def _assign(obj, **fields):
    """obj, an instance of a frozen dataclass, with fields set as given, unchecked."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
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

    amps (d, d) holds the vectors as rows; exponents (d, d) their tau
    exponents in -1..2d-1 (-1 for an exact zero), or None when the basis has
    no exact form; scales (d,) each vector's scale_sqrt_dim; class_labels
    (m, 2, e) the Weyl labels of a composite basis's commuting class, rows x
    and z of each member, or None.  All are read-only.  An exact basis is
    given by its exponents and scales alone, which it copies, and its amps
    are tau**e / d**(s/2) of them, so no basis holds amps that differ from
    its exponents.  The verifiers reject exponents outside -1..2d-1.
    MubBasis(dim, label, vectors) stacks MubVectors once, the exact ones by
    their exponents and scales; the builders view the rows of one stack.
    """

    dim: int
    label: int | str
    amps: np.ndarray
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
        if exps is not None:
            amps = _amplitudes(dim, exps, vector_scales)
        if class_labels is not None:
            class_labels = _frozen(class_labels, np.int64)
            if class_labels.ndim != 3 or class_labels.shape[1] != 2:
                raise ValueError(f"basis {label}: class_labels must have shape (members, 2, e)")
        _assign(self, dim=dim, label=label, amps=_frozen(amps, np.complex128),
                exponents=None if exps is None else _frozen(exps, np.int64),
                scales=_frozen(vector_scales, np.int64), class_labels=class_labels)

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


def _restack(bases, name: str, stack: np.ndarray) -> np.ndarray:
    """Copy each basis's array `name` into its row of stack and re-point the basis there.

    Re-pointing basis by basis frees each array that nothing else holds once
    it is copied, rather than after the whole set is stacked.
    """
    for b, row in zip(bases, stack):
        row[...] = getattr(b, name)
        view = row.view()
        view.setflags(write=False)
        object.__setattr__(b, name, view)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class MubSet:
    """Bases of one dimension, their arrays stacked once in basis order.

    amps (n, d, d) and scales (n, d) stack every basis's arrays; exponents
    (m, d, d) stacks those of the m bases that have them, which exact_bases
    (n,) marks.  Each basis is re-pointed at read-only views of these rows,
    so the set holds its arrays once; a set built by _of_stacks is given
    its stacks, and its bases are made of their rows.
    """

    dim: int
    bases: tuple
    forced: bool = False
    stacks: InitVar[dict | None] = None
    amps: np.ndarray = field(init=False, repr=False, compare=False)
    exponents: np.ndarray = field(init=False, repr=False, compare=False)
    scales: np.ndarray = field(init=False, repr=False, compare=False)
    exact_bases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, stacks):
        labels = [b.label for b in self.bases]
        if len(set(labels)) != len(labels):
            raise ValueError(f"basis labels must be unique, got {labels}")
        if not self.bases:
            raise ValueError("a set needs at least one basis")
        for b in self.bases:
            if b.dim != self.dim:
                raise ValueError(f"basis {b.label} has dim {b.dim}, expected {self.dim}")
        d, n = self.dim, len(self.bases)
        exact = [b for b in self.bases if b.exact]
        if stacks is None:
            stacks = {
                "amps": _restack(self.bases, "amps", np.empty((n, d, d), np.complex128)),
                "exponents": _restack(exact, "exponents", np.empty((len(exact), d, d), np.int64)),
                "scales": _restack(self.bases, "scales", np.empty((n, d), np.int64)),
            }
        _assign(self, **stacks, exact_bases=_frozen([b.exact for b in self.bases], bool))

    @classmethod
    def _of_stacks(cls, dim: int, labels, exponents, scales, amps=None, class_labels=None,
                   forced: bool = False):
        """The set of bases labels from its stacks, exponents (m, d, d) of the first m.

        scales (n, d) is int64; amps, if given, an (n, d, d) complex128 whose
        rows m.. hold the float bases' amps; class_labels one row per basis.
        The exact bases' amps are derived into rows :m in one broadcast, and
        each basis is made of read-only views of its rows.  The set keeps the
        arrays uncopied, so the caller must not write to them afterwards.
        """
        n, m = len(labels), len(exponents)
        amps = np.empty((n, dim, dim), np.complex128) if amps is None else amps
        if m > n or exponents.shape[1:] != (dim, dim) or scales.shape != (n, dim):
            raise ValueError(f"need exponents (m <= {n}, {dim}, {dim}), scales ({n}, {dim})")
        _amplitudes(dim, exponents, scales[:m], out=amps[:m])
        stacks = {"amps": amps, "exponents": exponents, "scales": scales}
        for array in stacks.values():
            array.setflags(write=False)
        members = [None] * n if class_labels is None else class_labels
        bases = tuple(
            _assign(MubBasis.__new__(MubBasis), dim=dim, label=label, amps=a, exponents=e,
                    scales=s, class_labels=c)
            for label, a, e, s, c in zip(labels, amps, (*exponents, *[None] * (n - m)), scales,
                                         members)
        )
        return cls(dim, bases, forced, stacks)

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
    (d+1, d, d) exponents, the scales and the amps are built once for the
    whole set, and each basis is made of read-only views of its rows.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if not is_prime(d) and not force:
        raise ValueError(
            f"d = {d} is not prime: the cyclic recipe yields d+1 pairwise "
            "unbiased bases only in prime dimension; pass force=True (mubkit set "
            "--force) to build the (incomplete) family anyway"
        )
    exps = np.empty((d + 1, d, d), np.int64)
    exps[0] = np.eye(d, dtype=np.int64) - 1
    exps[1:] = _eigen_exponents(d, np.arange(d)[:, None], np.arange(d))
    scales = np.ones((d + 1, d), np.int64)
    scales[0] = 0
    return MubSet._of_stacks(d, ("s", *range(d)), exps, scales, forced=not is_prime(d))


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


def _blocks(pairs: np.ndarray, n_conj: int, d: int) -> list:
    """The (P, 2) basis pairs in blocks of _block_pairs pairs (at least one), each as
    its row and column indices."""
    size = max(1, _block_pairs(n_conj, d))
    return [tuple(pairs[k : k + size].T) for k in range(0, len(pairs), size)]


def _deviations(amps: np.ndarray, same: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Worst float deviation of the (P, 2) pairs of n bases, in an (n, n) array.

    amps is (n, d, d); same (n, n) marks the pairs of one basis, whose
    overlaps must form the identity; all others need moduli 1/sqrt(d).
    """
    n, d = amps.shape[:2]
    deviation = np.zeros((n, n))
    for i, j in _blocks(pairs, 1, d):
        overlaps = np.matmul(amps[i].conj(), amps[j].transpose(0, 2, 1))
        block = np.abs(np.abs(overlaps) - 1 / np.sqrt(d)).max(axis=(1, 2))
        one = same[i, j]
        block[one] = np.abs(overlaps[one] - np.eye(d)).max(axis=(1, 2))
        deviation[i, j] = block
    return deviation


def _certificate_residuals(exps, scales, same, phases, pairs) -> tuple:
    """Worst conjugate residuals and float deviations of the (P, 2) pairs of m exact bases.

    exps (m, d, d) and scales (m, d) stack the bases' exponents and scales;
    same (m, m) marks the pairs of one basis; phases holds the rows of
    conjugate_phases(d) to evaluate, row 0 conjugate 1.  For amplitudes
    tau**e / d**(s/2) the scaled overlaps z are cyclotomic integers, and
    |z|**2 = d**(sa+sb-1) across bases (z = d**sa * I within one) holds
    exactly iff the residual is below 1/2 in every conjugate sigma_k
    (mubkit.cyclo).  A target below 1 (sa = sb = 0) has no algebraic-integer
    solution, so its residual is inf.  Conjugate 1 over d**((sa+sb)/2) is
    the Gram of the bases' amps (see _amplitudes), so its moduli also give
    each pair's float deviation as _deviations defines it.  Returns both as
    (m, m) arrays.  Each block of _blocks is one batched Gram (K, P, d, d)
    over the K conjugates and its pairs; its gathered phase grids, Gram,
    moduli and scaled conjugate-1 moduli share one work buffer that every
    block reuses, so memory stays bounded.
    """
    m, d = exps.shape[:2]
    n_k = len(phases)
    blocks = _blocks(pairs, n_k, d)
    size = n_k * len(blocks[0][0]) * d * d
    work = np.empty(3 * size, np.complex128)
    eye = np.eye(d)
    weights = float(d) ** scales
    # the least scale of each basis: a pair whose least scales sum below 1 has a target below 1
    least = scales.min(axis=1)
    residual = np.zeros((m, m))
    deviation = np.zeros((m, m))
    for i, j in blocks:
        shape = (n_k, len(i), d, d)
        used = n_k * len(i) * d * d
        # exponent -1 wraps to the zero column of conjugate_phases
        row_grid = np.take(phases, exps[i], axis=1, mode="wrap", out=work[:used].reshape(shape))
        np.conjugate(row_grid, out=row_grid)
        col_grid = np.take(phases, exps[j], axis=1, mode="wrap",
                           out=work[size : size + used].reshape(shape))
        grams = np.matmul(row_grid, col_grid.transpose(0, 1, 3, 2),
                          out=work[2 * size : 2 * size + used].reshape(shape))
        one = same[i, j]
        # diag(d**s) per pair of one basis
        targets = eye * weights[i[one]][:, None]
        one_residuals = np.abs(grams[:, one] - targets).max(axis=(0, 2, 3))
        # the grids are spent, so the moduli overwrite the row grid, and
        # conjugate 1's scaled moduli the row grid's second half
        moduli = np.abs(grams, out=work.view(np.float64)[:used].reshape(shape))
        products = weights[i][:, :, None] * weights[j][:, None, :]
        scaled = np.sqrt(products, out=work.view(np.float64)[used : used + products.size]
                         .reshape(products.shape))
        one_deviations = np.abs(grams[0, one] / scaled[one] - eye).max(axis=(1, 2))
        np.divide(moduli[0], scaled, out=scaled)
        scaled -= 1 / np.sqrt(d)
        block = np.abs(scaled, out=scaled).max(axis=(1, 2))
        block[one] = one_deviations
        deviation[i, j] = block
        np.square(moduli, out=moduli)
        products /= d
        moduli -= products
        block = np.abs(moduli, out=moduli).max(axis=(0, 2, 3))
        block[least[i] + least[j] < 1] = np.inf
        block[one] = one_residuals
        residual[i, j] = block
    return residual, deviation


@lru_cache(maxsize=None)
def _unit_generators(d: int) -> tuple:
    """Units g < d of Z/2d that generate its unit group together with -1.

    Each is picked greedily to generate the most, so an odd prime power d or
    a power of 2, whose group is cyclic modulo -1, gets one; no d <= 128
    needs more than three, and d = 2, 3 (where -1 alone does) none.
    """
    modulus = 2 * d

    def span(group, g):
        while not group >= (grown := {x * g % modulus for x in group}):
            group = group | grown
        return group

    units = [g for g in range(3, d, 2) if math.gcd(g, modulus) == 1]
    group, gens = {1, modulus - 1}, []
    while len(group) < 2 * (len(units) + 1):
        gens.append(max(units, key=lambda g: len(span(group, g))))
        group = span(group, gens[-1])
    return tuple(gens)


def _closure_permutations(exps: np.ndarray, scales: np.ndarray, maps) -> list:
    """For each map (g, D) of the exponents, the basis permutation it gives, or None.

    A map sends each exponent e >= 0 to g*e + D mod 2d, with g a unit mod
    2d and D one shift for every slot or one per slot (d,); an exact zero
    (-1) stays.  A map that sends the bases onto themselves gives the
    permutation pi that sends basis i to a basis pi[i] equal to the image
    of basis i up to the order and global phases of its rows, with the same
    scale on each row; such a basis gives every pair the same overlap
    moduli and targets.  Any other map gives None.  The check is on
    integers, and this routine alone owns the key: each row is shifted so
    that its first nonzero exponent is 0, its scale is appended, and a
    basis is keyed by its sorted rows.  The images' keys, sorted, must equal
    the keys, sorted; matching the two orders maps bases one to one, so two
    distinct bases never map onto one (whose pair has the same-basis
    target).  The bases and all images are keyed in one batch, in the
    narrowest signed type that holds -4d..4d and the scales.  Exponents must
    lie in -1..2d-1, as _pair_verdicts checks.
    """
    m, d = exps.shape[:2]
    dtype = np.min_scalar_type(-max(4 * d, int(np.abs(scales).max(initial=0)) + 1))
    rows = exps.astype(dtype)
    nonzero = rows >= 0
    images = np.empty((1 + len(maps), m, d, d), dtype)
    images[0] = rows
    for image, (g, shift) in zip(images[1:], maps):
        # exact zeros stay: the table keeps -1, and the shift skips them
        image[...] = rows if g == 1 else _multiples(d, g)[rows]
        np.add(image, shift, out=image, where=nonzero)
    zero = images < 0
    flat = images.reshape(-1, d)
    # each row less its first nonzero exponent, mod 2d
    flat -= flat[np.arange(len(flat)), (~zero).reshape(-1, d).argmax(axis=1)][:, None]
    images %= 2 * d
    images[zero] = -1
    tails = np.repeat(scales[None, ..., None].astype(dtype), len(images), axis=0)
    row_keys = np.concatenate([images, tails], axis=3)
    # freed before the sort, which works in place, so one copy of the keys is held
    del zero, images, flat
    row_keys = row_keys.view(np.dtype((np.void, row_keys.itemsize * (d + 1))))[..., 0]
    row_keys.sort(axis=2)
    keys = row_keys.view(np.dtype((np.void, row_keys.itemsize * d)))[..., 0]
    order = np.argsort(keys, axis=1, kind="stable")
    perms = []
    for image, image_order in zip(keys[1:], order[1:]):
        perm = None
        if (image[image_order] == keys[0, order[0]]).all():
            perm = np.empty(m, dtype=np.intp)
            perm[image_order] = order[0]
        perms.append(perm)
    return perms


@lru_cache(maxsize=None)
def _multiples(d: int, g: int) -> np.ndarray:
    """g*e mod 2d at index e = 0..2d-1, and -1 at index -1 (an exact zero stays), read-only.

    The table has the narrowest signed type that holds it.
    """
    table = np.append(np.arange(2 * d) * g % (2 * d), -1).astype(np.min_scalar_type(-2 * d))
    table.setflags(write=False)
    return table


def _symmetries(exps: np.ndarray, scales: np.ndarray, shifts: bool) -> tuple:
    """The Galois permutations of the bases, and the orbit of f0 under their diagonal shifts.

    sigma_g multiplies every tau exponent by g; the permutations pi_g, one
    per generator g of the units (see _unit_generators), are returned if
    every sigma_g maps the bases onto themselves, else None.  A shift adds
    D (d,) to every exponent >= 0: it multiplies each vector slot by slot
    by the phases tau**D, so every overlap of two shifted vectors, and every
    Galois conjugate of it, is unchanged, and a shift that maps the bases
    onto themselves gives each pair the residuals and deviation of its
    image pair.  f0 is the first flat basis (no exact zero).  For each flat
    basis k not yet in f0's orbit, the one candidate is D = exps[k, 0] -
    exps[f0, 0] mod 2d, the shift that sends row 0 of f0 to row 0 of k; the
    search stops at the first candidate that fails.  In a prime set
    eigenbasis a + c is eigenbasis a shifted by D = t(d-t)c at slot d-1-t,
    so one candidate reaches every eigenbasis; an exact p**e set needs e.
    Both kinds of map go through _closure_permutations, the first candidate
    in one batch with the conjugations.  Returns (perms or None, f0, maps)
    with maps (m, m): row i is g_i, a basis permutation composed of the
    shifts found with g_i[i] = f0, for each i in the orbit, and -1 for the
    other bases; maps is None when the first candidate fails or there is
    none (fewer than two flat bases, or shifts false): every pair stands alone.
    _pair_verdicts calls it for a lone pair, whose Galois closure, when it
    holds, saves K - 1 of its K Grams, and for two or more pairs whose
    Grams at every conjugate need more than one block.
    """
    m, d = exps.shape[:2]
    gens = _unit_generators(d)
    flat = np.flatnonzero(exps.reshape(m, -1).min(axis=1) >= 0)

    def shift(k):
        return 1, (exps[k, 0] - exps[flat[0], 0]) % (2 * d)

    found = _closure_permutations(
        exps, scales, [(g, 0) for g in gens] + [shift(k) for k in (flat[1:2] if shifts else ())]
    )
    perms, pending = found[: len(gens)], found[len(gens) :]
    if any(perm is None for perm in perms):
        perms = None
    if not pending or pending[0] is None:
        return perms, 0, None
    f0 = int(flat[0])
    maps = np.full((m, m), -1, dtype=np.intp)
    maps[f0] = np.arange(m)
    # the shifts found, each with its inverse, and the orbit reached
    shifts, reached = [], {f0}
    for k in flat[1:]:
        if k in reached:
            continue
        perm = pending.pop() if pending else _closure_permutations(exps, scales, [shift(k)])[0]
        if perm is None:
            break
        shifts.append((perm.tolist(), np.argsort(perm)))
        frontier = list(reached)
        while frontier:
            i = frontier.pop()
            for perm, inverse in shifts:
                if (j := perm[i]) not in reached:
                    # g_j is g_i after the inverse shift, which sends j to i
                    maps[j] = maps[i][inverse]
                    reached.add(j)
                    frontier.append(j)
    return perms, f0, maps


def _pair_verdicts(amps, exps, scales, exact, same, checked, tol):
    """Deviations, certificate verdicts, verdicts and counts of the pairs checked marks.

    amps (n, d, d) and scales (n, d) stack the bases, exps (m, d, d) the
    exponents of the bases exact (n,) marks; same (n, n) marks the pairs of
    one basis and checked (n, n) the pairs (i, j >= i) to check: all of
    them for verify_set, one for verify_unbiased.  Pairs with a non-exact
    basis go to _deviations, which an all-exact set never calls.  The own
    pair of a monomial basis is decided on integers and its deviation read
    from its d support amps.  The other checked exact pairs go to
    _certificate_residuals.  If two or more of them have Grams at all K
    conjugates that fit one block of _blocks, they are evaluated there,
    every pair at every conjugate, and _symmetries is not called.
    Otherwise any such pair (i, j) with a basis in the orbit of f0
    under the diagonal shifts of _symmetries, i say, copies the residuals
    and deviation of (f0, g_i(j)), so the certificate runs only on the pairs
    (f0, j) and the pairs with neither basis in the orbit that some checked
    pair maps to, at conjugate 1 alone if the bases are Galois-closed.
    Shifts are searched only for two or more such pairs, and for none
    neither _symmetries nor the certificate runs.  Returns (n, n)
    deviations, certificate verdicts and verdicts, each valid on the pairs
    checked, and the counts that verify_set reports.  Raises ValueError if
    an exponent lies outside -1..2d-1.
    """
    n, d = amps.shape[:2]
    if exps.size and (exps.min() < -1 or exps.max() >= 2 * d):
        # conjugate_phases has columns for 0..2d-1 and a zero column that -1 wraps to
        raise ValueError(f"tau exponents must lie in -1..{2 * d - 1} (-1 for an exact zero)")
    counts = {"conjugates": None, "gram_pairs": 0, "integer_pairs": 0}
    if exact.all():
        # slices cost less than np.ix_, and every entry is written below
        exact_pairs, exact_scales = np.s_[:, :], scales
        deviation, passed = np.empty((n, n)), np.empty((n, n), dtype=bool)
    else:
        floats = np.argwhere(checked & ~np.outer(exact, exact))
        deviation = _deviations(amps, same, floats)
        passed = deviation < tol
        counts["gram_pairs"] = len(floats)
        if not exact.any():
            return deviation, np.zeros((n, n), dtype=bool), passed, counts
        exact_pairs, exact_scales = np.ix_(exact, exact), scales[exact]
    certified = np.zeros((n, n), dtype=bool)
    evaluated = checked[exact_pairs].copy()
    # a monomial basis's Gram holds each row's |amp|**2 at its one slot on the
    # diagonal, and a slot shared by two rows gives an overlap of modulus 1
    own = {}
    for k in np.flatnonzero(~exact_scales.any(axis=1)).tolist():
        rows, slots = np.nonzero(exps[k] >= 0)
        if evaluated[k, k] and rows.tolist() == list(range(d)):
            evaluated[k, k] = False
            support = amps[np.flatnonzero(exact)[k], rows, slots].tolist()
            worst = max(abs(abs(z) ** 2 - 1) for z in support)
            own[k] = (math.inf, max(worst, 1.0)) if len(set(slots.tolist())) < d else (0, worst)
    residual, exact_deviation = np.zeros((2, len(exps), len(exps)))
    perms, maps, conjugates = None, None, 0
    if evaluated.any():
        phases = conjugate_phases(d)
        pending = np.count_nonzero(evaluated)
        if pending == 1 or pending > _block_pairs(len(phases), d):
            perms, f0, maps = _symmetries(exps, exact_scales, pending > 1)
            if maps is not None:
                # pair (i, j) copies the pair (f0, mate[i, j]): mate is g_i(j) if i is in
                # f0's orbit, else g_j(i) if j is; a pair with neither (mate -1) stands alone
                mate = np.where((maps[:, 0] >= 0)[:, None], maps, maps.T)
                copies = evaluated & (mate >= 0)
                evaluated = evaluated & ~copies
                source = f0, mate[copies]
                evaluated[source] = True
            if perms is not None:
                phases = phases[:1]
        residual, exact_deviation = _certificate_residuals(
            exps, exact_scales, same[exact_pairs], phases, np.argwhere(evaluated)
        )
        if maps is not None:
            for values in (residual, exact_deviation):
                values[copies] = values[source]
        conjugates = len(phases)
    for k, verdict in own.items():
        residual[k, k], exact_deviation[k, k] = verdict
    deviation[exact_pairs] = exact_deviation
    fail = residual >= 0.5
    fail |= fail.T
    # with the set closed, conjugate g of pair (i, j) is conjugate 1 of
    # (pi_g[i], pi_g[j]): a pair fails if any pair of its orbit fails
    grown = perms is not None and fail.any()
    while grown:
        before = np.count_nonzero(fail)
        for perm in perms:
            fail |= fail[np.ix_(perm, perm)]
        grown = np.count_nonzero(fail) > before
    certified[exact_pairs] = passed[exact_pairs] = ~fail
    counts["gram_pairs"] += int(np.count_nonzero(evaluated))
    counts.update(conjugates=conjugates, integer_pairs=len(own))
    return deviation, certified, passed, counts


def verify_unbiased(
    a_basis: MubBasis, b_basis: MubBasis, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Check the unbiasedness condition between two bases.

    For distinct bases every overlap modulus must equal 1/sqrt(d); for a
    basis against itself the Gram matrix must be the identity.  This is the
    two-basis case of verify_set's kernel, with its rules and its counts in
    details; its one pair is never covered by another, so no diagonal shift
    is searched.  max_residual is the pair's float deviation.
    """
    check_tolerance(tol)
    if a_basis.dim != b_basis.dim:
        raise ValueError("dimension mismatch between bases")
    d = a_basis.dim
    bases = (a_basis,) if a_basis is b_basis else (a_basis, b_basis)
    same = np.eye(len(bases), dtype=bool) | (a_basis.label == b_basis.label)
    exact = np.full(len(bases), a_basis.exact and b_basis.exact)
    checked = np.zeros_like(same)
    checked[0, -1] = True
    deviation, certified, passed, counts = _pair_verdicts(
        np.stack([b.amps for b in bases]),
        np.array([b.exponents for b in bases if exact[0]], dtype=np.int64).reshape(-1, d, d),
        np.stack([b.scales for b in bases]), exact, same, checked, tol,
    )
    return VerificationReport(
        kind="unbiasedness",
        passed=bool(passed[0, -1]),
        tolerance=tol,
        max_residual=float(deviation[0, -1]),
        details={
            "dim": d,
            "a": a_basis.label,
            "b": b_basis.label,
            "same_basis": bool(same[0, -1]),
            "exact": bool(certified[0, -1]) if exact[0] else None,
            **counts,
        },
    )


def verify_set(mub_set: MubSet, tol: float = DEFAULT_TOL) -> VerificationReport:
    """All-pairs (and per-basis Gram) verification of a candidate MUB set.

    A pair with a non-exact basis is decided by its float deviation against
    tol, a pair of exact bases by an exact verdict alone.  The own pair of a
    monomial basis (every row of scale 0 with one exponent >= 0, like the
    computational basis) passes iff no two rows share a slot, an integer
    check.  Any other exact pair passes iff every Galois conjugate of its
    scaled overlaps meets its target within 1/2 (see _certificate_residuals),
    and its deviation, the reported residual, is read from the conjugate-1
    Gram.  If two or more of these pairs have Grams at all K conjugates
    that fit one block (a built prime set up to d = 7, a forced or exact
    p**e set up to d = 9), each is evaluated at every conjugate, and
    max_residual is the worst deviation over every pair.  Otherwise, with
    the exact bases closed under every
    conjugation (see _closure_permutations) conjugate 1 alone is evaluated
    and a failure spreads along its orbit; diagonal shifts that map them
    onto themselves (see _symmetries) leave one Gram per orbit of pairs,
    d + 1 for a built prime set from d = 11 or a forced set from d = 10.
    details counts the "conjugates" evaluated per
    certified pair (0 if no pair needs the certificate, as in a composite
    set; None if no basis is exact), the "gram_pairs" evaluated by a float
    or certificate Gram, in blocks sized by GRAM_BLOCK_BYTES, and the
    "integer_pairs"; "complete" is whether the set has dim + 1 bases.  A
    forced set's "note" says its bases need not be mutually unbiased: they
    come from the prime recipe applied where it does not hold.
    """
    check_tolerance(tol)
    n = len(mub_set.bases)
    upper = np.triu(np.ones((n, n), dtype=bool))
    deviation, _, passed, counts = _pair_verdicts(
        mub_set.amps, mub_set.exponents, mub_set.scales, mub_set.exact_bases,
        np.eye(n, dtype=bool), upper, tol,
    )
    labels = [b.label for b in mub_set.bases]
    failing = [
        {"a": labels[i], "b": labels[j], "max_residual": float(deviation[i, j])}
        for i, j in np.argwhere(upper & ~passed)
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
        max_residual=float(deviation[upper].max()),
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
    vec = build_mub_vector(d, a, n)
    lam = eigenvalue_exponent(d, a, n).evaluate()
    return float(np.abs(build_v(d, a).entries @ vec.amps - lam * vec.amps).max())
