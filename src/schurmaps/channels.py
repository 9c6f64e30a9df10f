"""Decoherence channels as Schur-product maps.

A channel that preserves every observable diagonal in a fixed basis is
fully described by a correlation matrix xi (PSD, unit diagonal): it acts as
``O -> xi o O`` on observables and ``rho -> xi^T o rho`` on states, where
``o`` is the entrywise product. The decoherence basis is always the
standard basis here.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadDiagonal, NotState
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


@dataclass(frozen=True)
class DensityMatrix:
    """Validated quantum state: Hermitian, PSD, unit trace. Every function that takes
    one trusts it; built directly rather than by :meth:`from_matrix`, it skips
    validation and is trusted unchecked."""

    dim: int
    matrix: np.ndarray
    # not an init field, so dataclasses.replace never carries it to another matrix
    _eigvals: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def _eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the Hermitian part (read-only), to the bit
        ``_eigenvalues(matrix)``: carried from the solve of :meth:`from_matrix`, or
        for a directly built state solved on first read."""
        if self._eigvals is None:
            object.__setattr__(self, "_eigvals", _read_only(_eigenvalues(self.matrix)))
        return self._eigvals

    @classmethod
    def from_matrix(cls, m, tol: ToleranceProfile = DEFAULT_TOL) -> "DensityMatrix":
        """Validate ``m`` as a state; the state holds a read-only copy of it and
        carries the eigenvalues the validation solved."""
        mm, vals = _state_eigenvalues(m, tol)
        state = cls(dim=mm.shape[0], matrix=_read_only(mm))
        object.__setattr__(state, "_eigvals", _read_only(vals))
        return state

    @classmethod
    def _certified(cls, m: np.ndarray) -> "DensityMatrix":
        """A state of a read-only complex matrix that the caller has proven to pass
        :meth:`from_matrix`; nothing is checked or copied here. The matrix is a row
        of a fresh batch array, flagged read-only as a whole, that no caller holds."""
        return cls(dim=m.shape[0], matrix=m)

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """|v><v| / <v|v> (read-only) for a nonzero vector with finite entries."""
        v = _numbers(vector, complex, NotState).reshape(-1)
        norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:
            raise NotState(f"a pure state needs a nonzero finite vector, got norm {norm}")
        v = v / norm
        return cls(dim=v.shape[0], matrix=_read_only(np.outer(v, v.conj())))


@dataclass(frozen=True)
class CorrelationMatrix:
    """PSD matrix with exactly-unit diagonal; the channel's full description. Every
    function that takes one trusts it; built directly rather than by
    :func:`validate_correlation`, it skips validation and is trusted unchecked."""

    dim: int
    matrix: np.ndarray


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
    read-only copy.
    """
    mm = _hermitian_copy(m, tol)
    for k, v in enumerate(np.diag(mm)):
        if not abs(v - 1.0) <= tol.tr:
            raise BadDiagonal(k, v)
    np.fill_diagonal(mm, 1.0)
    _psd_eigenvalues(mm, tol)
    return CorrelationMatrix(dim=mm.shape[0], matrix=_read_only(mm))


def apply_heisenberg(ch: SchurChannel, obs) -> np.ndarray:
    """Heisenberg-picture action on an observable: xi o O."""
    return schur_product(ch.xi.matrix, obs)


def apply_schrodinger(
    ch: SchurChannel, rho: DensityMatrix, tol: ToleranceProfile = DEFAULT_TOL
) -> DensityMatrix:
    """Schrodinger-picture action on a state: xi^T o rho (transpose taken in
    the decoherence basis, never omitted): :func:`iterate` once."""
    return iterate(ch, rho, 1, tol)


def iterate(
    ch: SchurChannel, rho: DensityMatrix, n: int, tol: ToleranceProfile = DEFAULT_TOL
) -> DensityMatrix:
    """n-fold application of the channel to a state.

    Implemented as a single Schur product with the elementwise n-th power of
    xi^T, which is exactly equivalent for Schur maps and stabler for large n.
    """
    powered = np.power(ch.xi.matrix.T, _integer(n, 0, "iteration count"))
    return DensityMatrix.from_matrix(schur_product(powered, rho.matrix), tol)


def asymptotic_state(rho: DensityMatrix) -> DensityMatrix:
    """Diagonal truncation of the state, the fixed point of complete decoherence (read-only)."""
    diagonal = np.diag(np.diag(rho.matrix)).astype(complex)
    return DensityMatrix(dim=rho.dim, matrix=_read_only(diagonal))


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
