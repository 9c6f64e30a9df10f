import dataclasses

import numpy as np
import pytest

from schurmaps import (
    DensityMatrix,
    Dilation,
    DimensionMismatch,
    SchurChannel,
    apply_schrodinger,
    build_dilation,
    environment_state,
    entropy_exchange,
    kolmogorov_vectors,
    partial_trace_env,
    partial_trace_sys,
    validate_correlation,
    von_neumann_entropy,
)
from schurmaps.dilation import evolve_joint
from conftest import random_correlation, random_density


XI_REAL_D2 = [[1, 0.6], [0.6, 1]]
XI_COMPLEX_D3 = [
    [1, 0.4 + 0.3j, 0.2 - 0.3j],
    [0.4 - 0.3j, 1, 0.1 + 0.5j],
    [0.2 + 0.3j, 0.1 - 0.5j, 1],
]
# diagonal blocks of the joint unitary; every entry off these blocks is zero
U_BLOCKS_D2 = [
    [[0.894427190999916, 0.447213595499958], [0.447213595499958, -0.894427190999916]],
    [[0.894427190999916, 0.447213595499958], [-0.447213595499958, 0.894427190999916]],
]
U_BLOCKS_D3 = [
    [
        [0.494483204878291 - 0.201746552047313j, 0.845449400514493, 0.0],
        [0.829951156870083, -0.485418651538246 - 0.198048261864428j, 0.190595634580861],
        [
            -0.124879824892033 + 0.101837102154672j,
            0.097340255037577 - 0.029762470162505j,
            0.760775687827277 - 0.62039798266085j,
        ],
    ],
    [
        [0.970383580729067, 0.241569257670412, 0.0],
        [
            -0.069365115788313 + 0.147464312148674j,
            0.278639633558777 - 0.592364064171669j,
            0.738178520035936,
        ],
        [0.178321237113325, -0.716316315489756, 0.287143804875007 + 0.61044320610476j],
    ],
    [
        [0.240701006181314 + 0.52704162446095j, 0.815039969393444, 0.0],
        [
            0.241531802245716 - 0.761274001348391j,
            0.420943943105686 + 0.381007978970527j,
            0.19940762296958,
        ],
        [
            -0.025558794579098 - 0.160502906838082j,
            0.111336552476254 + 0.030872918509072j,
            -0.875807561893532 + 0.439542619585097j,
        ],
    ],
]


def reproduce_channel(dil, rho):
    return partial_trace_env(evolve_joint(dil, rho), dil.dim_sys, dil.dim_env)


class TestKolmogorovVectors:
    def test_identity_xi_gives_standard_basis(self):
        xi = validate_correlation(np.eye(3))
        vecs = kolmogorov_vectors(xi)
        assert vecs.shape == (3, 3)
        assert np.allclose(np.abs(vecs), np.eye(3))

    def test_all_ones_rank_one(self):
        xi = validate_correlation(np.ones((4, 4)))
        vecs = kolmogorov_vectors(xi)
        assert vecs.shape == (4, 1)
        assert np.allclose(vecs, vecs[0])

    def test_real_overlap(self):
        xi = validate_correlation([[1, 0.6], [0.6, 1]])
        vecs = kolmogorov_vectors(xi)
        gram = vecs.conj() @ vecs.T
        assert np.allclose(gram, xi.matrix)

    def test_gram_fidelity_random(self, rng):
        # Gram matrix <e_k|e_l> reproduces xi
        for _ in range(50):
            d = int(rng.integers(2, 6))
            xi = random_correlation(rng, d)
            vecs = kolmogorov_vectors(xi)
            gram = np.einsum("ka,la->kl", vecs.conj(), vecs)
            assert np.max(np.abs(gram - xi.matrix)) < 1e-9


class TestBuildDilation:
    def test_qubit_eraser_interaction(self):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        dil = build_dilation(ch)
        # U|k,0> = |k,k>: the controlled-shift register write
        for k in range(2):
            col = dil.unitary[:, k * dil.dim_env]
            expected = np.zeros(4)
            expected[k * 2 + k] = 1.0
            assert np.allclose(np.abs(col), expected)

    def test_all_ones_no_leak(self, rng):
        ch = SchurChannel(validate_correlation(np.ones((3, 3))))
        dil = build_dilation(ch)
        rho = random_density(rng, 3)
        sigma = environment_state(dil, rho)
        # identity channel: environment state is pure whatever the input
        assert von_neumann_entropy(sigma.matrix) < 1e-9

    def test_column_action(self, rng):
        ch = SchurChannel(random_correlation(rng, 4))
        dil = build_dilation(ch)
        for k in range(4):
            col = dil.unitary[:, k * dil.dim_env]
            expected = np.zeros(4 * dil.dim_env, dtype=complex)
            expected[k * dil.dim_env : (k + 1) * dil.dim_env] = dil.env_vectors[k]
            assert np.linalg.norm(col - expected) < 1e-9

    def test_unitarity(self, rng):
        ch = SchurChannel(random_correlation(rng, 5))
        u = build_dilation(ch).unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-9

    def test_channel_reproduction_random(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            ch = SchurChannel(random_correlation(rng, d))
            dil = build_dilation(ch)
            rho = random_density(rng, d)
            out = reproduce_channel(dil, rho)
            assert np.max(np.abs(out - apply_schrodinger(ch, rho).matrix)) < 1e-9

    def test_unitary_derived_from_env_vectors(self):
        ch = SchurChannel(validate_correlation([[1, 0.6], [0.6, 1]]))
        dil = build_dilation(ch)
        assert [f.name for f in dataclasses.fields(Dilation)] == [
            "dim_sys",
            "dim_env",
            "env_vectors",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            dil.unitary = np.eye(4)

    @pytest.mark.parametrize("xi, blocks", [(XI_REAL_D2, U_BLOCKS_D2), (XI_COMPLEX_D3, U_BLOCKS_D3)])
    def test_completion_convention_pinned(self, xi, blocks):
        # values of the Gram-Schmidt completion over the whole joint space, so
        # the block-by-block completion cannot drift from that convention
        u = build_dilation(SchurChannel(validate_correlation(xi))).unitary
        expected = np.zeros_like(u)
        de = len(blocks[0])
        for k, block in enumerate(blocks):
            expected[k * de : (k + 1) * de, k * de : (k + 1) * de] = block
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_env_dim_floor(self):
        ch = SchurChannel(validate_correlation(np.ones((2, 2))))
        dil = build_dilation(ch)
        assert dil.dim_env == 2
        # padded dimension never receives amplitude
        assert np.allclose(dil.env_vectors[:, 1], 0.0)


class TestEnvironmentState:
    def test_eraser_plus_state(self):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        dil = build_dilation(ch)
        sigma = environment_state(dil, DensityMatrix.pure([1, 1]))
        assert np.allclose(sigma.matrix, np.eye(2) / 2)

    def test_pure_input_selects_env_vector(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        dil = build_dilation(ch)
        rho = DensityMatrix.pure([0, 1, 0])
        sigma = environment_state(dil, rho)
        e1 = dil.env_vectors[1]
        assert np.allclose(sigma.matrix, np.outer(e1, e1.conj()))

    def test_matches_joint_evolution(self, rng):
        # the closed form agrees with tracing the system out of U (rho (x) |0><0|) U*
        for _ in range(100):
            d = int(rng.integers(2, 6))
            dil = build_dilation(SchurChannel(random_correlation(rng, d)))
            rho = random_density(rng, d)
            traced = partial_trace_sys(evolve_joint(dil, rho), d, dil.dim_env)
            assert np.max(np.abs(environment_state(dil, rho).matrix - traced)) < 1e-10

    def test_dimension_mismatch(self, rng):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        dil = build_dilation(ch)
        with pytest.raises(DimensionMismatch):
            environment_state(dil, random_density(rng, 3))

    def test_entropy_matches_entropy_exchange(self, rng):
        # cross-module: S(sigma_e) equals the closed-form entropy exchange
        for _ in range(30):
            d = int(rng.integers(2, 6))
            ch = SchurChannel(random_correlation(rng, d))
            dil = build_dilation(ch)
            rho = random_density(rng, d)
            s_env = von_neumann_entropy(environment_state(dil, rho).matrix)
            assert abs(s_env - entropy_exchange(ch, rho)) < 1e-8

    def test_rank_bounded_by_xi_rank(self, rng):
        xi = validate_correlation(np.ones((3, 3)))
        dil = build_dilation(SchurChannel(xi))
        sigma = environment_state(dil, random_density(rng, 3))
        vals = np.linalg.eigvalsh(sigma.matrix)
        assert np.sum(vals > 1e-9) <= 1
