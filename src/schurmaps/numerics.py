"""Dense complex linear-algebra primitives used throughout the library.

Everything here works on plain ``numpy`` arrays of complex numbers. Composite
system-environment spaces are ordered system (x) environment with the
environment index fastest-varying; every module in the package follows this
convention.
"""

import numbers
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BadCount,
    BadDimension,
    BadTolerance,
    NotHermitian,
    NotPSD,
    NotSquare,
    NotState,
    ShapeMismatch,
)

__all__ = [
    "ToleranceProfile",
    "DEFAULT_TOL",
    "schur_product",
    "partial_trace_env",
    "partial_trace_sys",
    "von_neumann_entropy",
]


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical tolerances shared by validation routines.

    herm  - max allowed |a_kl - conj(a_lk)| for a matrix to count as Hermitian
    psd   - eigenvalues >= -psd are accepted as nonnegative (and clamped to 0)
    tr    - allowed deviation of a trace or a probability or weight sum from 1

    The only tolerances a caller sets, each a real number (not a bool), finite
    and >= 0; every other acceptance bound is one of the fixed constants below.
    """

    herm: float = 1e-9
    psd: float = 1e-9
    tr: float = 1e-9

    def __post_init__(self):
        # read through fields: vars(self) would make every later attribute read slower
        for name, value in ((f.name, getattr(self, f.name)) for f in fields(self)):
            # a bool or a string is no tolerance; the bound also rejects an int no double holds
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0 <= value <= sys.float_info.max):
                raise BadTolerance(f"tolerance {name} must be a finite real >= 0, got {value!r}")


DEFAULT_TOL = ToleranceProfile()

RANK_THRESHOLD = 1e-9  # eigenvalues of xi and relative singular values at or below this are zero
NEGLIGIBLE = 1e-12  # probabilities, eigenvalues and entry deviations below this count as zero
RESIDUAL_TOL = 1e-8  # Frobenius residual of a decomposition or a recovered state
ENTROPY_SLACK = 1e-9  # slack of the entropy inequalities (bounds sandwich, entropy production)
MAJORIZATION_SLACK = 1e-10  # slack of the partial-sum comparisons in majorization_check


class _ArrayFields:
    """Base of the dataclasses that hold arrays, each declared with ``eq=False``:
    ``==`` compares two instances of one class field by field, an array by
    ``np.array_equal`` (shape and entries), any other value by ``==``. No
    instance hashes, as none did while the dataclass ``==`` compared arrays
    as tuples."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _equal(a, b) -> bool:
    if a is b:
        return True
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(a, b))
    return bool(a == b)


def _integer(value, least: int, what: str, error=BadCount) -> int:
    """``value`` as an int if ``operator.index`` takes it and it is >= ``least``, else
    ``error``; a bool is no count, though ``operator.index`` takes it."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise error(f"{what} must be {'nonnegative' if least == 0 else f'>= {least}'}, got {value}")
    return value


def _numbers(a, dtype, error) -> np.ndarray:
    """``a`` as an array of ``dtype``, or ``error`` where numpy cannot convert it:
    a string, a ragged list, a complex number where a real is asked for."""
    try:
        if dtype is float and np.iscomplexobj(a):  # numpy would drop the imaginary parts
            raise TypeError("complex entries where real ones are expected")
        return np.asarray(a, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise error(f"expected an array of numbers: {exc}") from None


def _as_matrix(a) -> np.ndarray:
    m = _numbers(a, complex, ShapeMismatch)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {m.shape}")
    return m


def _hermitian_copy(a, tol: ToleranceProfile) -> tuple[np.ndarray, np.floating, np.ndarray]:
    """A fresh nonempty square complex copy m of ``a`` that passed the Hermitian
    check, its Hermitian deviation max |a_kl - conj(a_lk)|, and m* (a view of a
    conjugate copy), which the deviation was taken from and which
    :func:`_eigenvalues` takes rather than form it again.
    A caller that changes m in place must not pass that m* on.

    A NaN or inf entry, or one so large that the difference overflows, makes the
    deviation NaN or inf and fails it, silently: no finiteness pass."""
    m = _as_matrix(a).copy()
    if m.shape[0] != m.shape[1] or not m.size:
        raise NotSquare(f"expected a nonempty square matrix, got shape {m.shape}")
    adjoint = m.conj().T
    with np.errstate(invalid="ignore", over="ignore"):
        dev = abs(m - adjoint).max()
    if not dev <= tol.herm:
        raise NotHermitian(f"max |a_kl - conj(a_lk)| = {dev:.3e} exceeds {tol.herm:.1e}")
    return m, dev, adjoint


def _eigenvalues(m: np.ndarray, adjoint: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (m + m*)/2 of a trusted ``m``:
    nothing is checked. ``adjoint`` is m*, where the caller holds it already."""
    return np.linalg.eigvalsh((m + (m.conj().T if adjoint is None else adjoint)) / 2)


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the Hermitian part (m + m*)/2 of a trusted
    ``m``: nothing is checked. The eigenvalues are sorted descending, column j of
    the eigenvectors pairs with eigenvalue j, and each column is phase-fixed so
    that its largest-modulus entry is real and positive, which makes the
    constructions built on it (Kolmogorov vectors, dilations) deterministic."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    anchors = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs = vecs / (anchors / np.abs(anchors))[None, :]
    return vals, vecs


def _entropy_bits(p: np.ndarray) -> float:
    """-sum(p log2 p) over the positive entries of ``p``: 0 log 0 = 0, and a
    one-term distribution gives 0.0, not -0.0."""
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) + 0.0


def _psd_eigenvalues(m: np.ndarray, tol: ToleranceProfile,
                     adjoint: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian-checked matrix, or :class:`NotPSD`;
    ``adjoint`` as for :func:`_eigenvalues`."""
    vals = _eigenvalues(m, adjoint)
    if not vals[0] >= -tol.psd:
        raise NotPSD(float(vals[0]))
    return vals


def _state_eigenvalues(
    a, tol: ToleranceProfile
) -> tuple[np.ndarray, np.floating, np.ndarray]:
    """A validated copy of a state (Hermitian, unit trace, PSD), its Hermitian
    deviation and its ascending eigenvalues."""
    m, dev, adjoint = _hermitian_copy(a, tol)
    tr = m.trace().real
    if not abs(tr - 1.0) <= tol.tr:
        raise NotState(f"trace {tr} differs from 1 beyond tolerance")
    return m, dev, _psd_eigenvalues(m, tol, adjoint)


def schur_product(a, b) -> np.ndarray:
    """Entrywise (Schur/Hadamard) product of two equally-shaped matrices."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ShapeMismatch(f"shapes {ma.shape} and {mb.shape} differ")
    return ma * mb


def _joint_blocks(m, dim_sys: int, dim_env: int) -> np.ndarray:
    """A system (x) environment matrix as the 4-index array [k, a, l, b]."""
    dim_sys = _integer(dim_sys, 1, "dim_sys", BadDimension)
    dim_env = _integer(dim_env, 1, "dim_env", BadDimension)
    mm = _as_matrix(m)
    n = dim_sys * dim_env
    if mm.shape != (n, n):
        raise ShapeMismatch(f"expected shape ({n}, {n}), got {mm.shape}")
    return mm.reshape(dim_sys, dim_env, dim_sys, dim_env)


def partial_trace_env(m, dim_sys: int, dim_env: int) -> np.ndarray:
    """Trace out the environment (fast index) of a system (x) environment matrix."""
    return np.trace(_joint_blocks(m, dim_sys, dim_env), axis1=1, axis2=3)


def partial_trace_sys(m, dim_sys: int, dim_env: int) -> np.ndarray:
    """Trace out the system (slow index), leaving the environment."""
    return np.trace(_joint_blocks(m, dim_sys, dim_env), axis1=0, axis2=2)


def von_neumann_entropy(rho, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Von Neumann entropy in bits, -sum(lam * log2(lam)) with 0*log 0 = 0.

    The input must be a valid state: Hermitian, PSD, and unit trace within
    the profile's tolerances.
    """
    return _entropy_bits(_state_eigenvalues(rho, tol)[2])
