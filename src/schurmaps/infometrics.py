"""Entropy exchange and the information-flow bounds for Schur channels.

All entropies are in bits (base-2 logarithms) throughout the package.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import DensityMatrix, SchurChannel, _evolved, _kept_image
from .decomposition import FlatDecomposition, _require_accepted, verify_decomposition
from .dilation import _factor
from .errors import DimensionMismatch, NotDistribution, VerificationFailure
from .numerics import (
    DEFAULT_TOL,
    ENTROPY_SLACK,
    MAJORIZATION_SLACK,
    RANK_THRESHOLD,
    ToleranceProfile,
    _eigenvalues,
    _entropy_bits,
    _numbers,
    von_neumann_entropy,
)

__all__ = [
    "BoundsReport",
    "EntropyProductionReport",
    "entropy_exchange",
    "entropy_exchange_from_decomposition",
    "shannon_entropy",
    "bounds_report",
    "entropy_production_check",
    "majorization_check",
]


@dataclass(frozen=True)
class BoundsReport:
    """Sandwich of the classical-information cost of undoing the channel.

    s_xi_over_d is both the entropy of xi/d and the entropy exchange at the
    maximally mixed input; h_p is the weight entropy of the supplied
    decomposition, when any. The bounds hold within ``ENTROPY_SLACK``.
    """

    s_xi_over_d: float
    two_log_rank: float
    rank: int
    rank_threshold: float
    h_p: Optional[float] = None
    lower_bound_satisfied: Optional[bool] = None
    upper_bound_satisfied: Optional[bool] = None


@dataclass(frozen=True)
class EntropyProductionReport:
    entropy_in: float
    entropy_out: float
    entropy_exchange: float
    satisfied: bool


def entropy_exchange(ch: SchurChannel, rho: DensityMatrix) -> float:
    """Entropy exchange S(sqrt(rho_inf) xi sqrt(rho_inf)) in bits.

    rho_inf is diagonal, so its square root is taken entrywise. The operator
    is a congruence of the validated xi with trace Tr rho, so it is trusted.
    """
    return _entropy_bits(_exchange_eigenvalues(ch, rho))


def _exchange_eigenvalues(ch: SchurChannel, rho: DensityMatrix) -> np.ndarray:
    """Ascending eigenvalues of the entropy-exchange operator of :func:`entropy_exchange`."""
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != channel dim {ch.dim}")
    sq = np.sqrt(np.clip(np.diag(rho.matrix).real, 0.0, None))
    return _eigenvalues(sq[:, None] * ch.xi.matrix * sq[None, :])


def entropy_exchange_from_decomposition(dec: FlatDecomposition, rho: DensityMatrix) -> float:
    """Entropy exchange from a random-unitary decomposition.

    Builds W_ij = sqrt(p_i p_j) Tr[U_i rho U_j*] (an m x m state for flat
    diagonal unitaries), validates it under the profile of ``rho`` and returns
    its entropy. A negative or NaN weight raises :class:`VerificationFailure`.
    """
    if rho.dim != dec.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != decomposition dim {dec.dim}")
    if not np.all(dec.weights >= 0):
        raise VerificationFailure(f"weights must be nonnegative, smallest is {dec.weights.min()}")
    diag = np.diag(rho.matrix)
    overlaps = np.einsum("ik,jk,k->ij", dec.phase_vectors, dec.phase_vectors.conj(), diag)
    sq = np.sqrt(dec.weights)
    w = sq[:, None] * overlaps * sq[None, :]
    return von_neumann_entropy(w, rho._tol)


def shannon_entropy(p, tol: ToleranceProfile = DEFAULT_TOL) -> float:
    """Shannon entropy of a probability vector, in bits."""
    v = _numbers(p, float, NotDistribution)
    if not np.all(v >= 0):
        raise NotDistribution(f"entries must be nonnegative numbers, smallest is {v.min()}")
    if not abs(v.sum() - 1.0) <= tol.tr:
        raise NotDistribution(f"entries sum to {v.sum()}, expected 1")
    return _entropy_bits(v)


def bounds_report(ch: SchurChannel, dec: Optional[FlatDecomposition] = None) -> BoundsReport:
    """Information-flow bounds for a channel, optionally against a decomposition.

    S(xi/d) lower-bounds the weight entropy of any flat decomposition; it is
    taken from the spectrum of xi that :func:`kolmogorov_vectors` solved, so
    it costs no eigensolve of its own. The upper bound 2 log2 rank(xi)
    constrains only the minimum over decompositions and is reported
    informationally. A decomposition that
    :func:`verify_decomposition` rejects (under the profile of ``ch.xi``)
    raises :class:`VerificationFailure`.
    """
    spectrum, kets = _factor(ch.xi)
    rank = kets.shape[1]
    s_low = _entropy_bits(spectrum / ch.dim)
    two_log_rank = 2.0 * float(np.log2(rank))
    h_p = lower_ok = upper_ok = None
    if dec is not None:
        h_p = _require_accepted(verify_decomposition(ch.xi, dec)).shannon_entropy_bits
        lower_ok = bool(s_low <= h_p + ENTROPY_SLACK)
        upper_ok = bool(h_p <= two_log_rank + ENTROPY_SLACK)
    return BoundsReport(
        s_xi_over_d=s_low,
        two_log_rank=two_log_rank,
        rank=rank,
        rank_threshold=RANK_THRESHOLD,
        h_p=h_p,
        lower_bound_satisfied=lower_ok,
        upper_bound_satisfied=upper_ok,
    )


def entropy_production_check(ch: SchurChannel, rho: DensityMatrix) -> EntropyProductionReport:
    """Check |S(E(rho)) - S(rho)| <= S_ex(rho).

    rho, E(rho) and the entropy-exchange operator all have the trace of rho,
    which the profile lets differ from 1, and may have eigenvalues down to
    -psd. Each entropy is judged and reported for its operator's spectrum
    clamped at 0 and divided by its sum, so that the inequality is that of
    states and neither slack can turn an entropy negative. So nothing is
    validated and no state is built. The spectrum of E(rho) is that of the
    image that :func:`~schurmaps.channels.apply_schrodinger` last built from
    a validated ``rho`` under ``ch.xi``, solved once and shared with a later
    read, while the caller still holds that image; else it is solved
    straight from the Schur product that ``apply_schrodinger`` builds, as
    for the entropy-exchange operator. Both are the same spectrum to the
    bit.
    """

    def of_state(vals):  # S of the positive part of a spectrum, normalized to unit sum
        positive = vals[vals > 0]
        return _entropy_bits(positive / positive.sum())

    s_ex = of_state(_exchange_eigenvalues(ch, rho))  # first: it checks the dimensions
    s_in = of_state(rho._eigenvalues)
    image = _kept_image(ch, rho)
    s_out = of_state(_eigenvalues(_evolved(ch, rho, 1)) if image is None else image._eigenvalues)
    return EntropyProductionReport(
        entropy_in=s_in,
        entropy_out=s_out,
        entropy_exchange=s_ex,
        satisfied=abs(s_out - s_in) <= s_ex + ENTROPY_SLACK,
    )


def majorization_check(rho: DensityMatrix) -> bool:
    """True iff the diagonal of rho is majorized by its spectrum, within
    ``MAJORIZATION_SLACK``."""
    partial_diag = np.cumsum(np.sort(np.diag(rho.matrix).real)[::-1])
    partial_spec = np.cumsum(rho._eigenvalues[::-1])
    if not abs(partial_diag[-1] - partial_spec[-1]) <= MAJORIZATION_SLACK:
        return False
    return bool(np.all(partial_diag <= partial_spec + MAJORIZATION_SLACK))
