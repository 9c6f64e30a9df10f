import os
from pathlib import Path

import numpy as np
import pytest

from schurmaps import (
    CorrelationMatrix,
    DensityMatrix,
    FlatDecomposition,
    validate_correlation,
)


ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with ``src`` first on PYTHONPATH, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def random_correlation(rng, d) -> CorrelationMatrix:
    """Random correlation matrix: normalized complex Wishart."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = g @ g.conj().T
    s = 1.0 / np.sqrt(np.diag(a).real)
    return validate_correlation(s[:, None] * a * s[None, :])


def random_density(rng, d) -> DensityMatrix:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = g @ g.conj().T
    return DensityMatrix.from_matrix(a / np.trace(a).real)


def random_pure(rng, d) -> DensityMatrix:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DensityMatrix.pure(v)


def random_unitary(rng, d) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def random_flat_decomposition(rng, d, terms) -> FlatDecomposition:
    """Random mixture of flat vectors (first entries pinned to 1)."""
    theta = rng.uniform(0, 2 * np.pi, size=(terms, d))
    theta[:, 0] = 0.0
    p = rng.dirichlet(np.ones(terms))
    return FlatDecomposition(dim=d, weights=p, phase_vectors=np.exp(1j * theta))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
