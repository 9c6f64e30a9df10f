"""Decoherence channels as Schur-product maps.

A channel that preserves every observable diagonal in a fixed basis is
fully described by a correlation matrix xi (PSD, unit diagonal): it acts as
``O -> xi o O`` on observables and ``rho -> xi^T o rho`` on states, where
``o`` is the entrywise product. The decoherence basis is always the
standard basis here.
"""

import functools
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BadCount, BadDiagonal, DimensionMismatch, NotState, ShapeMismatch
from .numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
    _ArrayFields,
    _eigenvalues,
    _hermitian_copy,
    _integer,
    _numbers,
    _psd_eigenvalues,
    _state_eigenvalues,
    schur_product,
)

__all__ = [
    "DensityMatrix",
    "CorrelationMatrix",
    "SchurChannel",
    "validate_correlation",
    "apply_heisenberg",
    "apply_schrodinger",
    "iterate",
    "asymptotic_state",
]


def _read_only(m: np.ndarray) -> np.ndarray:
    """``m``, flagged read-only so no caller can change a validated matrix in place."""
    m.flags.writeable = False
    return m


class _ReadOnlyArrays(_ArrayFields):
    """Base of the value objects that hold read-only arrays, compared by value. numpy
    unpickles every array writeable, so unpickling flags each array the object
    holds, directly or in a kept tuple, read-only again; a held value object
    restores its own. A shallow copy shares the original's arrays and leaves
    their flags as they are."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
        self.__dict__.update(state)

    def __copy__(self):
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        return copy


@dataclass(frozen=True, eq=False)
class DensityMatrix(_ReadOnlyArrays):
    """Validated quantum state: Hermitian, PSD, unit trace. Every function that takes
    one trusts it; built directly rather than by :meth:`from_matrix`, it skips
    validation and is trusted unchecked.

    It carries the profile it was validated under (``DEFAULT_TOL`` when built
    directly or by :meth:`pure`), and every state the library builds from it
    is judged under, and carries, that profile: a Schur product by
    :func:`_schur_bounds` or the full check. Validated by
    :meth:`from_matrix`, it also carries the spectrum and the Hermitian
    deviation max |rho_kl - conj(rho_lk)| that the validation computed; an
    image that :func:`iterate` certified carries its deviation and solves its
    spectrum on first read; a state built any other way carries neither. A
    state that carries its deviation points weakly to its image under the
    last correlation matrix :func:`apply_schrodinger` sent it through.
    ``==`` compares ``dim`` and the matrix entries, and a pickle round trip
    keeps its arrays read-only and drops that pointer."""

    dim: int
    matrix: np.ndarray
    # class defaults, not fields: a state carries its own in its instance
    _eigvals = _dev = _image = None
    _tol = DEFAULT_TOL

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_image", None)  # a weak reference, which pickle cannot carry
        return state

    @property
    def _eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part (read-only), to the bit
        ``_eigenvalues(matrix)``: carried from the solve of :meth:`from_matrix`;
        for an image :func:`iterate` certified, whose matrix is a fresh array
        no caller holds, solved on the first read and kept; else solved on
        every read and kept nowhere, so a later change to a caller's array
        shows."""
        if self._dev is None:  # not validated, so a caller may hold its matrix
            return _solved_eigenvalues(self)
        return _kept(self, "_eigvals", _solved_eigenvalues)

    @classmethod
    def from_matrix(cls, m, tol: ToleranceProfile = DEFAULT_TOL) -> "DensityMatrix":
        """Validate ``m`` as a state under ``tol``; the state holds a read-only copy
        of it and carries ``tol`` and the eigenvalues and Hermitian deviation
        the validation computed."""
        mm, dev, vals = _state_eigenvalues(m, tol)
        state = cls(dim=mm.shape[0], matrix=_read_only(mm))
        object.__setattr__(state, "_eigvals", _read_only(vals))
        object.__setattr__(state, "_dev", dev)
        object.__setattr__(state, "_tol", tol)
        return state

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """|v><v| / <v|v> (read-only) for a nonzero vector with finite entries, given
        as an array with at most one axis longer than 1, such as a (d, 1) column."""
        v = _numbers(vector, complex, NotState)
        if sum(n > 1 for n in v.shape) > 1:
            raise ShapeMismatch(f"a pure state needs a vector, got shape {v.shape}")
        v = v.reshape(-1)
        norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:
            raise NotState(f"a pure state needs a nonzero finite vector, got norm {norm}")
        v = v / norm
        return cls(dim=v.shape[0], matrix=_read_only(np.outer(v, v.conj())))


@dataclass(frozen=True, eq=False)
class CorrelationMatrix(_ReadOnlyArrays):
    """PSD matrix with exactly-unit diagonal; the channel's full description. Every
    function that takes one trusts it; built directly rather than by
    :func:`validate_correlation`, it skips validation and is trusted unchecked.

    It holds a read-only copy of ``matrix``, so no caller can change it, and
    carries the profile it was validated under (``DEFAULT_TOL`` when built
    directly), under which a decomposition of it is judged, and, once
    :func:`~schurmaps.dilation.kolmogorov_vectors` has factored it, that
    factor and the spectrum it was taken from, and once its face has been
    counted, its rank and Li-Tam count. Validated by
    :func:`validate_correlation`, it also carries the least eigenvalue of its
    Hermitian part and its Hermitian deviation, which :func:`iterate`'s
    certificate reads; built directly, it carries neither. ``==`` compares
    ``dim`` and the matrix entries, and a pickle round trip keeps its arrays
    read-only."""

    dim: int
    matrix: np.ndarray
    # class defaults, not fields: validation carries its own in the instance, and
    # the factor and the face count are kept there on first read
    _lam_min = _dev = _factor = _face = None
    _tol = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix)))


def _derived(m: np.ndarray, rho: DensityMatrix, dev=None) -> DensityMatrix:
    """The state of ``m``, a fresh matrix built from ``rho`` that no caller holds,
    read-only and carrying the profile of ``rho``, and ``dev`` as its Hermitian
    deviation where one is given."""
    state = DensityMatrix(rho.dim, _read_only(m))
    object.__setattr__(state, "_tol", rho._tol)
    if dev is not None:
        object.__setattr__(state, "_dev", dev)
    return state


def _kept(obj, name: str, build):
    """``build(obj)``, built on the first read and kept in the instance under ``name``,
    outside the fields, over the class default None that ``obj``'s class declares.
    Each builder is deterministic, so two threads that race keep equal values."""
    value = getattr(obj, name)
    if value is None:
        value = build(obj)
        object.__setattr__(obj, name, value)
    return value


_KEPT_RECENT = 16  # values each bounded builder keeps, the least recently used dropped first
_KEPT_BYTES = 1 << 18  # the largest value kept: 256 KiB


def _kept_bounded(nbytes):
    """Decorator for a builder of read-only arrays from hashable arguments alone: the
    last ``_KEPT_RECENT`` values whose size ``nbytes(*args)`` is at most ``_KEPT_BYTES``
    are kept (an LRU), so equal calls share them; a larger value is built by
    ``__wrapped__`` for its call alone and kept nowhere. A builder that raises keeps
    nothing. The decorated function has the LRU's ``cache_info`` and ``cache_clear``."""

    def decorate(build):
        kept = functools.lru_cache(maxsize=_KEPT_RECENT)(build)

        @functools.wraps(build)
        def value(*args):
            return (kept if nbytes(*args) <= _KEPT_BYTES else build)(*args)

        value.cache_info, value.cache_clear = kept.cache_info, kept.cache_clear
        return value

    return decorate


def _solved_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    return _read_only(_eigenvalues(rho.matrix))


@dataclass(frozen=True)
class SchurChannel:
    """Schur-product channel determined by a correlation matrix."""

    xi: CorrelationMatrix

    @property
    def dim(self) -> int:
        return self.xi.dim

    @property
    def complete(self) -> bool:
        """True iff every off-diagonal |xi_kl| < 1, i.e. the channel drives
        all states to their diagonal."""
        m = self.xi.matrix
        off = np.abs(m - np.diag(np.diag(m)))
        return bool(np.all(off < 1.0))


def validate_correlation(m, tol: ToleranceProfile = DEFAULT_TOL) -> CorrelationMatrix:
    """Validate a matrix as a correlation matrix.

    Diagonal entries within ``tol.tr`` of 1 are snapped to exactly 1 so the
    unit-diagonal invariant holds exactly downstream. The result holds a
    read-only copy and carries ``tol``, the least eigenvalue of the copy's
    Hermitian part and the Hermitian deviation of the input, which snapping
    the diagonal can only lower.
    """
    mm, herm_dev, _ = _hermitian_copy(m, tol)  # its adjoint misses the snapped diagonal
    dev = abs(mm.diagonal() - 1.0)
    if not dev.max() <= tol.tr:  # NaN fails: max propagates it
        k = int(np.argmax(~(dev <= tol.tr)))  # the first bad entry
        raise BadDiagonal(k, mm[k, k])
    np.fill_diagonal(mm, 1.0)
    vals = _psd_eigenvalues(mm, tol)
    xi = CorrelationMatrix(dim=mm.shape[0], matrix=mm)
    object.__setattr__(xi, "_lam_min", float(vals[0]))
    object.__setattr__(xi, "_dev", float(herm_dev))
    object.__setattr__(xi, "_tol", tol)
    return xi


def apply_heisenberg(ch: SchurChannel, obs) -> np.ndarray:
    """Heisenberg-picture action on an observable: xi o O."""
    return schur_product(ch.xi.matrix, obs)


def apply_schrodinger(ch: SchurChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schrodinger-picture action on a state: xi^T o rho (transpose taken in
    the decoherence basis, never omitted): :func:`iterate` once, so judged
    under, and carrying, the profile of ``rho``.

    Every call builds the image afresh. A validated ``rho`` (one that carries
    its Hermitian deviation, so its matrix is its own) points to it in one
    slot, ``(ch.xi, weak reference to the image)``, which the next call
    replaces; :func:`~schurmaps.infometrics.entropy_production_check` reads
    the image's spectrum there while the caller holds the image. A weak
    reference keeps no image alive, so a chain of calls holds no chain of
    states, and a pickle or deep copy of ``rho`` leaves the slot out."""
    image = iterate(ch, rho, 1)
    if rho._dev is not None:
        object.__setattr__(rho, "_image", (ch.xi, weakref.ref(image)))
    return image


def _kept_image(ch: SchurChannel, rho: DensityMatrix):
    """The live image of ``rho`` under ``ch.xi`` that :func:`apply_schrodinger` built, or None."""
    kept = rho._image
    return kept[1]() if kept is not None and kept[0] is ch.xi else None


def iterate(ch: SchurChannel, rho: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold application of the channel to a state.

    Implemented as a single Schur product with the elementwise n-th power of
    xi^T, which is exactly equivalent for Schur maps and stabler for large n;
    a count numpy cannot take as a double raises :class:`BadCount`, a state
    of another dimension :class:`DimensionMismatch`. The image is judged
    under, and carries, the profile of ``rho``, and it is accepted exactly
    when :meth:`DensityMatrix.from_matrix` would accept it: where ``rho`` and
    ``ch.xi`` carry their validation facts, its Hermitian deviation and trace
    are tested as ``from_matrix`` tests them and its least eigenvalue is
    bounded by :func:`_schur_bounds`, so an image that passes carries its
    deviation and solves its spectrum on first read; any other image is
    fully checked by ``from_matrix``, which also raises every refusal.
    """
    n = _integer(n, 0, "iteration count")
    m = _evolved(ch, rho, n)
    tol = rho._tol
    if (rho._dev is not None and ch.xi._dev is not None  # else the full check
            and _schur_bounds(rho, rho._dev, 2, ch.xi, n)[1] <= tol.psd / 2):  # so m is finite
        dev = abs(m - m.conj().T).max()  # the expressions and tests of from_matrix
        if dev <= tol.herm and abs(float(m.trace().real) - 1.0) <= tol.tr:
            return _derived(m, rho, dev)
    return DensityMatrix.from_matrix(m, tol)


def _schur_bounds(rho: DensityMatrix, dev: float, rounding: float,
                  xi: CorrelationMatrix | None = None, n: int = 1) -> tuple[float, float]:
    """Bounds (herm, psd), per unit f, on the Hermitian deviation and on minus
    the least eigenvalue that ``DensityMatrix.from_matrix`` measures on a
    computed Schur product F o rho, ``dev`` being the Hermitian deviation of
    the validated ``rho``: the one certificate of every Schur product the
    library derives from one. Without ``xi``, F is PSD by construction with diagonal at most f (a
    correction's b b* or G G*), and ``rounding`` counts the roundings of F and
    of the product, in eps of |F_kl| |rho_kl| an entry; with ``xi``, F is
    numpy's power (xi^T)^(o n), f = 1, ``rounding`` counts the product's, and
    both bounds are inf where a term could overflow.

    Let R be rho's Hermitian part, beta = max(0, -lam_min) from its carried
    spectrum and N = max(-lam_min, lam_max) + dev >= ||R||, |rho_kl|. Write
    F/f = Q + (P - Q), Q Hermitian with diagonal at most 1 and Q >= -alpha I,
    P - Q of entries at most e. By Schur's product theorem (Q + alpha I) o (R
    + beta I) >= 0, so Q o R >= -[(1 + alpha) beta + alpha N] (Ostrowski; Horn
    & Johnson, Topics in Matrix Analysis, 1991, 5.3), and |Q_kl| <= 1 + alpha
    bounds the deviation of Q o rho by (1 + alpha) dev. Q o (rho - R) is
    anti-Hermitian; the rest, (P - Q) o rho and ``rounding`` eps of entries at
    most (1 + alpha + e) N, has norm at most E = d N (e + rounding eps (1 +
    alpha + e)) and adds E to psd, 2 E to herm. An eigensolve errs by at most
    32 d eps times its matrix's norm, and two are read: rho's, weighted by 1 +
    alpha, and the full check's of the product, whose Hermitian part has norm
    at most (1 + 2 alpha) N + E; 64 d eps ((1 + 2 alpha) N + E) covers both.

    For xi^T, its Hermitian part A has unit diagonal and A >= -a I, a being
    the carried least eigenvalue's negative part plus 64 d eps ||A|| for its
    own solve, ||A|| <= d (1 + a). So (A^T + a I)^(o n) >= 0 has diagonal (1
    + a)^n: Q = (A^T)^(o n) has unit diagonal and alpha = (1 + a)^n - 1. With
    M = 1 + a + dev(xi) >= |xi_kl|, xi's anti-Hermitian part and numpy's
    power (within about 4 n eps |z|^n) give e = n M^n dev(xi)/2 + 16 (n + 1)
    eps M^n. The bounds are taken while M^n <= 2 and N <= 2^1020, so no entry
    of the product, nor a difference of two, overflows.

    A caller certifies a state whose f-scaled bounds stay within half of
    tol.herm and tol.psd, the other half covering the rounding of f and of
    this arithmetic, and whose trace passes the test of ``from_matrix``.
    """
    d, eps = rho.dim, sys.float_info.epsilon
    slack = 64 * d * eps
    vals = rho._eigenvalues  # carried, or solved once and kept
    lo, hi, dev = float(vals[0]), float(vals[-1]), float(dev)
    norm = max(-lo, hi) + dev
    alpha = e = 0.0
    if xi is not None:
        low = max(0.0, -xi._lam_min)
        a = low + slack * d * (1 + low)
        growth = n * math.log1p(a + xi._dev)
        if not (growth <= math.log(2) and norm <= 2.0**1020):  # a NaN fails too
            return math.inf, math.inf
        m_n, alpha = math.exp(growth), math.expm1(n * math.log1p(a))
        e = n * m_n * xi._dev / 2 + 16 * (n + 1) * eps * m_n
    error = d * (e + rounding * eps * (1 + alpha + e)) * norm
    psd = (1 + alpha) * max(0.0, -lo) + alpha * norm + error
    return (1 + alpha) * dev + 2 * error, psd + slack * ((1 + 2 * alpha) * norm + error)


def _evolved(ch: SchurChannel, rho: DensityMatrix, n: int) -> np.ndarray:
    """The matrix (xi^T)^(o n) o rho of :func:`iterate`, unvalidated, for an int n >= 0."""
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {ch.dim}")
    try:
        power = np.power(ch.xi.matrix.T, n)
    except OverflowError:  # numpy takes the count as a double
        raise BadCount("iteration count must fit in a double, below about 1.8e308") from None
    return schur_product(power, rho.matrix)


def asymptotic_state(rho: DensityMatrix) -> DensityMatrix:
    """Diagonal truncation of the state, the fixed point of complete decoherence
    (read-only, carrying the profile of ``rho``)."""
    return _derived(np.diag(np.diag(rho.matrix)).astype(complex), rho)
