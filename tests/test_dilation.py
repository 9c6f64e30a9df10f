import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmaps import (
    CorrelationMatrix,
    DensityMatrix,
    Dilation,
    DimensionMismatch,
    NotState,
    SchurChannel,
    SearchConfig,
    ShapeMismatch,
    ToleranceProfile,
    apply_schrodinger,
    bounds_report,
    build_dilation,
    environment_state,
    entropy_exchange,
    extremality_test,
    flat_search,
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


def householder_blocks(env):
    """Block k: I - 2 w w*/|w|^2 with w = e_k + e^{i arg e_k[0]} |0>, column 0 set to e_k."""
    blocks = []
    for e in env:
        w = e.copy()
        w[0] += np.exp(1j * np.angle(e[0]))
        block = np.eye(len(e)) - 2 * np.outer(w, w.conj()) / np.vdot(w, w).real
        block[:, 0] = e
        blocks.append(block)
    return blocks


ROW_KINDS = ["random", "zero_first", "plus0", "minus0", "i0", "register"]


@st.composite
def env_rows(draw):
    """Unit env kets of one size 2..8: random, zero first entry, +-|0>, i|0> or |j>."""
    de = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=4)):
        e = np.zeros(de, dtype=complex)
        if kind in ("random", "zero_first"):
            e[:] = rng.normal(size=de) + 1j * rng.normal(size=de)
            if kind == "zero_first":
                e[0] = 0.0
            e /= np.linalg.norm(e)
        elif kind == "register":
            e[draw(st.integers(0, de - 1))] = 1.0
        else:
            e[0] = {"plus0": 1.0, "minus0": -1.0, "i0": 1j}[kind]
        rows.append(e)
    return np.array(rows)


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


class TestSharedFactor:
    """A xi owns a read-only copy of its matrix and carries its Kolmogorov factor."""

    def test_pipeline_factors_xi_once(self, monkeypatch):
        # extremality, dilation, search and bounds on one validated full-rank d = 6
        # flat mixture: one eigh between them, and no eigvalsh (S(xi/d) comes from
        # the spectrum that eigh solved)
        d = 6
        rng = np.random.default_rng([6, 4])
        u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(3, d)))
        xi = validate_correlation(0.4 * np.eye(d) + 0.6 * (u.T * [0.5, 0.3, 0.2]) @ u.conj())
        ch = SchurChannel(xi)
        calls = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, n=name, s=solver, **k: calls.append(n) or s(*a, **k)
            )
        assert extremality_test(xi).rank == d
        build_dilation(ch)
        dec = flat_search(xi, SearchConfig(restarts=4, max_iters=1000))
        report = bounds_report(ch, dec)
        assert report.lower_bound_satisfied
        assert calls == ["eigh"]
        s_low = -sum(v * np.log2(v) for v in np.linalg.eigvalsh(xi.matrix) / d if v > 0)
        assert report.s_xi_over_d == pytest.approx(s_low, abs=1e-12)
        kets = kolmogorov_vectors(xi)
        assert kolmogorov_vectors(xi) is kets and not kets.flags.writeable

    def test_carried_factor_is_the_fresh_one(self, rng):
        for d in (2, 3, 5):
            xi = random_correlation(rng, d)
            fresh = kolmogorov_vectors(CorrelationMatrix(d, np.array(xi.matrix)))
            assert kolmogorov_vectors(xi).tobytes() == fresh.tobytes()

    def test_caller_array_changes_neither_matrix_nor_kets(self, rng):
        # over a caller's writeable array, and over a read-only view of one
        for view in (False, True):
            m = np.array(random_correlation(rng, 4).matrix)
            given = m[:] if view else m
            if view:
                given.flags.writeable = False
            xi = CorrelationMatrix(4, given)
            kets = kolmogorov_vectors(xi)
            matrix, ket_bytes = xi.matrix.copy(), kets.tobytes()
            m[:] = np.ones((4, 4))
            assert np.array_equal(xi.matrix, matrix)
            assert kolmogorov_vectors(xi) is kets and kets.tobytes() == ket_bytes
            for a in (xi.matrix, kets):
                with pytest.raises(ValueError):
                    a[0, 0] = 0.0

    def test_replace_copies_and_factors_afresh(self, rng):
        xi = random_correlation(rng, 3)
        kets = kolmogorov_vectors(xi)
        m = np.array(xi.matrix)
        other = dataclasses.replace(xi, matrix=m)
        assert "_factor" not in vars(other) and not np.shares_memory(other.matrix, m)
        assert not other.matrix.flags.writeable
        assert kolmogorov_vectors(other) is not kets
        assert kolmogorov_vectors(other).tobytes() == kets.tobytes()


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

    @pytest.mark.parametrize("xi", [XI_REAL_D2, XI_COMPLEX_D3])
    def test_completion_convention_pinned(self, xi):
        # block diagonal, block k the Householder completion of e_k; zero elsewhere
        dil = build_dilation(SchurChannel(validate_correlation(xi)))
        u = dil.unitary
        expected = np.zeros_like(u)
        de = dil.dim_env
        for k, block in enumerate(householder_blocks(dil.env_vectors)):
            expected[k * de : (k + 1) * de, k * de : (k + 1) * de] = block
        assert np.max(np.abs(u - expected)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(env_rows())
    def test_closed_form_unitary_and_exact(self, env):
        d, de = env.shape
        u = Dilation(dim_sys=d, dim_env=de, env_vectors=env).unitary
        assert not np.isnan(u).any()
        assert np.linalg.norm(u.conj().T @ u - np.eye(d * de)) <= 1e-12
        for k in range(d):
            col = np.zeros(d * de, dtype=complex)
            col[k * de : (k + 1) * de] = env[k]
            assert np.array_equal(u[:, k * de], col)

    def test_loose_psd_tolerance(self, rng):
        # a rank-2 xi pushed to least eigenvalue -6e-7: accepted under psd = 1e-6, and the
        # dropped eigenvalue leaves the Kolmogorov kets' squared norms off 1 by ~4e-7
        tol = ToleranceProfile(psd=1e-6)
        v = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        xi = v @ v.conj().T
        _, vecs = np.linalg.eigh(xi)
        xi -= 6e-7 * np.trace(xi).real / 3 * np.outer(vecs[:, 0], vecs[:, 0].conj())
        s = 1 / np.sqrt(np.diag(xi).real)
        xi = validate_correlation(s[:, None] * xi * s[None, :], tol)
        assert np.linalg.eigvalsh(xi.matrix)[0] < -1e-7
        dil = build_dilation(SchurChannel(xi))
        u = dil.unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= 1e-12
        gram = np.einsum("ka,la->kl", dil.env_vectors.conj(), dil.env_vectors)
        assert np.max(np.abs(gram - xi.matrix)) <= tol.psd

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


class TestDilationChecks:
    @pytest.mark.parametrize(
        "dim_sys, dim_env, env, error",
        [
            (2, 2, [[2, 0], [0, 1]], NotState),  # the unitary would miss unitarity by 3
            (2, 2, [[1 + 1e-9, 0], [0, 1]], NotState),  # squared norm 1 + 2e-9
            (2, 2, [[np.nan, 0], [0, 1]], NotState),
            (2, 2, [[np.inf, 0], [0, 1]], NotState),
            (2, 2, [[0, 0], [0, 1]], NotState),
            (2, 3, np.eye(2), ShapeMismatch),
            (3, 2, np.eye(2), ShapeMismatch),
            (2, 2, np.ones(2), ShapeMismatch),
        ],
    )
    def test_rejected(self, dim_sys, dim_env, env, error):
        with pytest.raises(error):
            Dilation(dim_sys=dim_sys, dim_env=dim_env, env_vectors=np.asarray(env, dtype=complex))

    def test_unit_within_trace_tolerance_accepted(self):
        env = np.array([[np.sqrt(1 + 9e-10), 0], [0, 1j]])
        assert Dilation(dim_sys=2, dim_env=2, env_vectors=env).dim_env == 2

    def test_holds_read_only_copy(self):
        env = np.eye(2, dtype=complex)
        dil = Dilation(dim_sys=2, dim_env=2, env_vectors=env)
        env[0, 0] = 5.0
        assert dil.env_vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            dil.env_vectors[0, 0] = 5.0
