"""Decoherence channels as Schur-product maps.

A channel that preserves every observable diagonal in a fixed basis is
fully described by a correlation matrix xi (PSD, unit diagonal): it acts as
``O -> xi o O`` on observables and ``rho -> xi^T o rho`` on states, where
``o`` is the entrywise product. The decoherence basis is always the
standard basis here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadDiagonal, DimensionMismatch, NotState, ShapeMismatch
from .numerics import (
    DEFAULT_TOL,
    ToleranceProfile,
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
    "choi_operator",
    "jamiolkowski_operator",
]


def _read_only(m: np.ndarray) -> np.ndarray:
    """``m``, flagged read-only so no caller can change a validated matrix in place."""
    m.flags.writeable = False
    return m


class _ReadOnlyArrays:
    """Base of the value objects that hold read-only arrays. numpy unpickles every
    array writeable, so unpickling flags each array the object holds, directly or
    in a kept tuple, read-only again; a held value object restores its own. A
    shallow copy shares the original's arrays and leaves their flags as they are."""

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


@dataclass(frozen=True)
class DensityMatrix(_ReadOnlyArrays):
    """Validated quantum state: Hermitian, PSD, unit trace. Every function that takes
    one trusts it; built directly rather than by :meth:`from_matrix`, it skips
    validation and is trusted unchecked.

    It carries the profile it was validated under (``DEFAULT_TOL`` when built
    directly or by :meth:`pure`), and every state the library builds from it
    is judged under, and carries, that profile. Validated by
    :meth:`from_matrix`, it also carries the spectrum and the Hermitian
    deviation max |rho_kl - conj(rho_lk)| that the validation computed; a
    state built any other way carries neither. A pickle round trip keeps its
    arrays read-only."""

    dim: int
    matrix: np.ndarray
    _eigvals = _dev = None  # class defaults, not fields: a state carries its own in its instance
    _tol = DEFAULT_TOL

    @property
    def _eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part (read-only), to the bit
        ``_eigenvalues(matrix)``: carried from the solve of :meth:`from_matrix`,
        else solved on every read and kept nowhere, so a later change to a
        caller's array shows."""
        if self._eigvals is not None:
            return self._eigvals
        return _read_only(_eigenvalues(self.matrix))

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


@dataclass(frozen=True)
class CorrelationMatrix(_ReadOnlyArrays):
    """PSD matrix with exactly-unit diagonal; the channel's full description. Every
    function that takes one trusts it; built directly rather than by
    :func:`validate_correlation`, it skips validation and is trusted unchecked.

    It holds a read-only copy of ``matrix``, so no caller can change it, and
    carries the profile it was validated under (``DEFAULT_TOL`` when built
    directly), under which a decomposition of it is judged, and, once
    :func:`~schurmaps.dilation.kolmogorov_vectors` has factored it, that
    factor and the spectrum it was taken from. A pickle round trip keeps its
    arrays read-only."""

    dim: int
    matrix: np.ndarray
    _tol = DEFAULT_TOL  # a class default, not a field: validation carries its own in the instance

    def __post_init__(self):
        object.__setattr__(self, "matrix", _read_only(np.array(self.matrix)))


def _carry(obj, source):
    """``obj``, just built from the validated ``source`` and held by no caller,
    carrying the profile of ``source``."""
    object.__setattr__(obj, "_tol", source._tol)
    return obj


def _kept(obj, name: str, build):
    """``build(obj)``, built on the first read and kept in the instance under ``name``,
    outside the fields; ``dict.setdefault`` makes two threads at once keep one value."""
    kept = obj.__dict__
    return kept[name] if name in kept else kept.setdefault(name, build(obj))


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
    read-only copy and carries ``tol``.
    """
    mm, _ = _hermitian_copy(m, tol)
    dev = abs(mm.diagonal() - 1.0)
    if not dev.max() <= tol.tr:  # NaN fails: max propagates it
        k = int(np.argmax(~(dev <= tol.tr)))  # the first bad entry
        raise BadDiagonal(k, mm[k, k])
    np.fill_diagonal(mm, 1.0)
    _psd_eigenvalues(mm, tol)
    xi = CorrelationMatrix(dim=mm.shape[0], matrix=mm)
    object.__setattr__(xi, "_tol", tol)
    return xi


def apply_heisenberg(ch: SchurChannel, obs) -> np.ndarray:
    """Heisenberg-picture action on an observable: xi o O."""
    return schur_product(ch.xi.matrix, obs)


def apply_schrodinger(ch: SchurChannel, rho: DensityMatrix) -> DensityMatrix:
    """Schrodinger-picture action on a state: xi^T o rho (transpose taken in
    the decoherence basis, never omitted): :func:`iterate` once, so validated
    under, and carrying, the profile of ``rho``."""
    return iterate(ch, rho, 1)


def iterate(ch: SchurChannel, rho: DensityMatrix, n: int) -> DensityMatrix:
    """n-fold application of the channel to a state.

    Implemented as a single Schur product with the elementwise n-th power of
    xi^T, which is exactly equivalent for Schur maps and stabler for large n.
    The result is validated under, and carries, the profile of ``rho``; a
    state of another dimension raises :class:`DimensionMismatch`.
    """
    return DensityMatrix.from_matrix(_evolved(ch, rho, n), rho._tol)


def _evolved(ch: SchurChannel, rho: DensityMatrix, n: int) -> np.ndarray:
    """The matrix (xi^T)^(o n) o rho of :func:`iterate`, unvalidated."""
    n = _integer(n, 0, "iteration count")
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {ch.dim}")
    return schur_product(np.power(ch.xi.matrix.T, n), rho.matrix)


def asymptotic_state(rho: DensityMatrix) -> DensityMatrix:
    """Diagonal truncation of the state, the fixed point of complete decoherence
    (read-only, carrying the profile of ``rho``)."""
    diagonal = np.diag(np.diag(rho.matrix)).astype(complex)
    return _carry(DensityMatrix(dim=rho.dim, matrix=_read_only(diagonal)), rho)


def choi_operator(ch: SchurChannel) -> np.ndarray:
    """Choi operator: entries <k,k|R_C|l,l> = xi_kl, zero elsewhere (d^2 x d^2)."""
    d = ch.dim
    r = np.zeros((d * d, d * d), dtype=complex)
    kk = np.arange(d) * (d + 1)
    r[np.ix_(kk, kk)] = ch.xi.matrix
    return r


def jamiolkowski_operator(ch: SchurChannel) -> np.ndarray:
    """Jamiolkowski operator: sum_kl xi_kl |l,k><k,l| (d^2 x d^2)."""
    d = ch.dim
    r = np.zeros((d * d, d * d), dtype=complex)
    k, l = np.indices((d, d))
    r[l * d + k, k * d + l] = ch.xi.matrix
    return r
