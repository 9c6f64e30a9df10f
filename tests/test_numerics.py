import numpy as np
import pytest

from schurmaps import (
    NotState,
    ShapeMismatch,
    partial_trace_env,
    partial_trace_sys,
    schur_product,
    von_neumann_entropy,
)
from schurmaps.numerics import _spectrum
from conftest import random_density, random_unitary


class TestHermitianEig:
    """``_spectrum``: the descending, phase-fixed Hermitian eigendecomposition that
    the Kolmogorov factor and the qutrit face descent are built on."""

    def test_identity(self):
        vals, _ = _spectrum(np.eye(2, dtype=complex))
        assert np.allclose(vals, [1.0, 1.0])

    def test_symmetric_2x2(self):
        # characteristic polynomial of [[1, c], [c, 1]] gives 1 +/- c
        vals, _ = _spectrum(np.array([[1, 0.6], [0.6, 1]], dtype=complex))
        assert np.allclose(vals, [1.6, 0.4])

    def test_pauli_x(self):
        vals, _ = _spectrum(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(vals, [1.0, -1.0])

    def test_random_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = (g + g.conj().T) / 2
            lam, v = _spectrum(a)
            recon = v @ np.diag(lam) @ v.conj().T
            norm = np.linalg.norm(a) or 1.0
            assert np.linalg.norm(recon - a) <= 1e-10 * max(norm, 1.0)
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
            # each column's largest-modulus entry is real and positive
            anchors = v[np.argmax(np.abs(v), axis=0), np.arange(d)]
            assert np.all(anchors.real > 0) and np.max(np.abs(anchors.imag)) <= 1e-15

    def test_descending_order(self, rng):
        g = rng.normal(size=(5, 5))
        vals, _ = _spectrum((g + g.T) / 2)
        assert np.all(np.diff(vals) <= 0)


class TestSchurProduct:
    def test_all_ones_is_identity_element(self, rng):
        rho = random_density(rng, 3).matrix
        assert np.allclose(schur_product(np.ones((3, 3)), rho), rho)

    def test_identity_extracts_diagonal(self, rng):
        rho = random_density(rng, 3).matrix
        assert np.allclose(schur_product(np.eye(3), rho), np.diag(np.diag(rho)))

    def test_by_hand(self):
        out = schur_product([[1, 0.5], [0.5, 1]], [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            schur_product(np.eye(2), np.eye(3))

    def test_psd_closure(self, rng):
        # Schur product theorem: entrywise product of PSD matrices is PSD
        for _ in range(50):
            d = int(rng.integers(2, 6))
            ga = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            gb = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            prod = schur_product(ga @ ga.conj().T, gb @ gb.conj().T)
            assert np.linalg.eigvalsh(prod).min() >= -1e-10


class TestPartialTrace:
    def test_product_state(self, rng):
        rho = random_density(rng, 2).matrix
        sigma = random_density(rng, 3).matrix
        assert np.allclose(partial_trace_env(np.kron(rho, sigma), 2, 3), rho)
        assert np.allclose(partial_trace_sys(np.kron(rho, sigma), 2, 3), sigma)

    def test_maximally_entangled(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        proj = np.outer(phi, phi.conj())
        assert np.allclose(partial_trace_env(proj, 2, 2), np.eye(2) / 2)

    def test_eraser_interaction_decoheres_plus(self):
        # U|k,0> = |k,k> for d=2, written out as an explicit 4x4 permutation
        u = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        plus = np.full((2, 2), 0.5, dtype=complex)
        e0 = np.diag([1.0, 0.0]).astype(complex)
        joint = u @ np.kron(plus, e0) @ u.conj().T
        assert np.allclose(partial_trace_env(joint, 2, 2), np.eye(2) / 2)

    def test_trace_preserved(self, rng):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert abs(np.trace(partial_trace_env(m, 2, 3)) - np.trace(m)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            partial_trace_env(np.eye(5), 2, 3)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit_is_one_bit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12

    def test_binary_entropy(self):
        # -0.8 log2 0.8 - 0.2 log2 0.2
        assert abs(von_neumann_entropy(np.diag([0.8, 0.2])) - 0.7219280948873623) < 1e-12

    def test_rejects_non_state(self):
        with pytest.raises(NotState):
            von_neumann_entropy(np.eye(2))

    def test_unitary_invariance(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d).matrix
            v = random_unitary(rng, d)
            s1 = von_neumann_entropy(rho)
            s2 = von_neumann_entropy(v @ rho @ v.conj().T)
            assert abs(s1 - s2) < 1e-9
