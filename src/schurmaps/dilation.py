"""Unitary system-environment realizations of Schur channels.

The Gram (Kolmogorov) factorization xi_kl = <e_l|e_k> of the correlation
matrix yields environment kets |e_k>; the interaction acts as
``U |k> (x) |0>_e = |k> (x) |e_k>`` and tracing out the environment
reproduces the channel.
"""

from dataclasses import dataclass

import numpy as np

from .channels import CorrelationMatrix, DensityMatrix, SchurChannel, _read_only
from .errors import DimensionMismatch, NotState, ShapeMismatch
from .numerics import DEFAULT_TOL, RANK_THRESHOLD, ToleranceProfile, _numbers, _spectrum

__all__ = ["Dilation", "kolmogorov_vectors", "build_dilation", "environment_state"]


@dataclass(frozen=True)
class Dilation:
    """System-environment unitary realization with pure environment input |0>_e.

    ``env_vectors[k]`` is the environment ket the interaction writes when the
    system is in basis state k. The kets determine the dilation; the joint
    unitary is built from them only on demand, by :attr:`unitary`. The kets
    must be finite, of shape (dim_sys, dim_env), and of unit norm within
    ``DEFAULT_TOL.tr``; the dilation holds a read-only copy of them.
    """

    dim_sys: int
    dim_env: int
    env_vectors: np.ndarray  # shape (dim_sys, dim_env)

    def __post_init__(self):
        env = _numbers(self.env_vectors, complex, ShapeMismatch).copy()
        if env.shape != (self.dim_sys, self.dim_env):
            raise ShapeMismatch(
                f"env_vectors of shape {env.shape}, expected ({self.dim_sys}, {self.dim_env})"
            )
        with np.errstate(over="ignore"):
            norm2 = (np.abs(env) ** 2).sum(axis=1)
        bad = ~(np.abs(norm2 - 1.0) <= DEFAULT_TOL.tr)  # a NaN or inf entry fails too
        if bad.any():
            k = int(np.argmax(bad))
            raise NotState(f"environment ket {k} has squared norm {norm2[k]}, expected 1")
        object.__setattr__(self, "env_vectors", _read_only(env))

    @property
    def unitary(self) -> np.ndarray:
        """The (dim_sys*dim_env)^2 joint unitary with U |k>(x)|0>_e = |k>(x)|e_k>.

        Column k*dim_env lives on block k alone, so U is block diagonal. Block k
        is the Householder reflection I - 2 w w*/|w|^2 with w = e_k + a_k |0>,
        a_k = e^{i arg e_k[0]}, whose column 0 is -conj(a_k) e_k; that column is
        set to e_k. Since |w|^2 = 2 + 2|e_k[0]| >= 2, every block is well defined.
        """
        env = self.env_vectors
        d, de = env.shape
        w = env.astype(complex)
        w[:, 0] += np.exp(1j * np.angle(env[:, 0]))  # angle(0) = 0: a_k = 1
        norm2 = (np.abs(w) ** 2).sum(axis=1)
        blocks = np.eye(de) - 2 * w[:, :, None] * w.conj()[:, None, :] / norm2[:, None, None]
        blocks[:, :, 0] = env
        u = np.zeros((d * de, d * de), dtype=complex)
        k = np.arange(d)
        u.reshape(d, de, d, de)[k, :, k, :] = blocks  # in place: no second full-size array
        return u


def kolmogorov_vectors(xi: CorrelationMatrix) -> np.ndarray:
    """Unit vectors e_k (rows) whose Gram matrix <e_k|e_l> equals xi_kl,
    of dimension rank(xi).

    Spectral construction: xi = V Lam V* gives e_k = row k of
    conj(V) sqrt(Lam), keeping only eigenvalues above the rank threshold.
    With this index order the dilation reproduces the Schrodinger action
    xi^T o rho (for real xi both orders coincide). Deterministic thanks to
    the eigensolver's phase convention. ``xi`` is trusted: nothing is checked.
    """
    res = _spectrum(xi.matrix)
    keep = res.eigenvalues > RANK_THRESHOLD
    vals = res.eigenvalues[keep]
    vecs = res.eigenvectors[:, keep]
    return vecs.conj() * np.sqrt(vals)[None, :]


def _unit_dilation(kets: np.ndarray) -> Dilation:
    """The dilation whose environment kets are the rows of ``kets`` divided by
    their norms, zero-padded to an environment of dimension at least 2."""
    d, r = kets.shape
    env = np.zeros((d, max(r, 2)), dtype=complex)
    env[:, :r] = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    return Dilation(dim_sys=d, dim_env=env.shape[1], env_vectors=env)


def build_dilation(ch: SchurChannel) -> Dilation:
    """Spectral dilation of a Schur channel.

    The environment dimension is max(rank(xi), 2): a one-dimensional
    environment admits no nontrivial measurement, so a never-populated
    dimension is padded in to keep the correction machinery uniform.
    Each Kolmogorov ket is divided by its norm: the eigenvalues that
    ``kolmogorov_vectors`` drops, negative ones down to -psd of the
    validating profile included, leave its squared norm off 1 by up to
    that much, and the dilation needs unit kets.
    """
    return _unit_dilation(kolmogorov_vectors(ch.xi))


def evolve_joint(dil: Dilation, rho: DensityMatrix) -> np.ndarray:
    """U (rho (x) |0><0|_e) U* on the joint space."""
    if rho.dim != dil.dim_sys:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {dil.dim_sys}")
    e0 = np.zeros((dil.dim_env, dil.dim_env), dtype=complex)
    e0[0, 0] = 1.0
    u = dil.unitary
    return u @ np.kron(rho.matrix, e0) @ u.conj().T


def environment_state(
    dil: Dilation, rho: DensityMatrix, tol: ToleranceProfile = DEFAULT_TOL
) -> DensityMatrix:
    """Reduced environment state after the interaction: sum_k rho_kk |e_k><e_k|.

    Closed form from the environment kets; the joint unitary is not built.
    """
    if rho.dim != dil.dim_sys:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {dil.dim_sys}")
    weights = np.diag(rho.matrix).real
    env = dil.env_vectors
    return DensityMatrix.from_matrix((env.T * weights) @ env.conj(), tol)
