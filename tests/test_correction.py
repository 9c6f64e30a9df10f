import numpy as np
import pytest

from schurmaps import (
    DEFAULT_TOL,
    BadDimension,
    DensityMatrix,
    RecoveryFailure,
    SchurChannel,
    VerificationFailure,
    apply_schrodinger,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    eraser_scenario,
    flat_search,
    partial_trace_env,
    reconstruct_xi,
    run_correction,
    run_eraser,
    screen_pattern,
    shannon_entropy,
    validate_correlation,
    which_way_readout,
)
from schurmaps import SearchConfig
from schurmaps.correction import EnvPovm, _measure_and_correct
from schurmaps.dilation import build_dilation, evolve_joint
from conftest import (
    random_correlation,
    random_density,
    random_flat_decomposition,
    random_unitary,
)


def projected_joint_state(dil, rho, v):
    """<v|_e U (rho (x) |0><0|) U* |v>_e from the joint unitary (unnormalized)."""
    joint = evolve_joint(dil, rho).reshape(dil.dim_sys, dil.dim_env, dil.dim_sys, dil.dim_env)
    return np.einsum("kalb,a,b->kl", joint, v.conj(), v)


class TestMeasureAndCorrectClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("povm_kind", ["fourier", "random"])
    def test_matches_joint_unitary(self, d, povm_kind, rng):
        for trial in range(6):
            if trial % 2 == 0:
                dil = build_dilation(SchurChannel(random_correlation(rng, d)))
            else:
                dec = random_flat_decomposition(rng, d, int(rng.integers(1, d + 3)))
                dil = dilation_from_decomposition(dec)
            de = dil.dim_env
            if povm_kind == "fourier":
                k = np.arange(de)
                effects = np.exp(2j * np.pi * np.outer(k, k) / de) / np.sqrt(de)
            else:
                effects = random_unitary(rng, de).T
            povm = EnvPovm(dim_env=de, effects=effects)
            povm.check_complete()
            heralded = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(de, d)))
            rho = random_density(rng, d)
            amplitudes = dil.env_vectors @ effects.conj().T  # column i = <v_i|e_k>
            records, recovered = _measure_and_correct(amplitudes, heralded, rho, DEFAULT_TOL)
            expected_recovered = np.zeros((d, d), dtype=complex)
            expected_records = []
            for i, v in enumerate(effects):
                sigma = projected_joint_state(dil, rho, v)
                w = heralded[i]
                corrected = w.conj()[:, None] * sigma * w[None, :]
                expected_recovered += corrected
                prob = np.trace(sigma).real
                if prob >= 1e-12:
                    expected_records.append((i, prob, sigma / prob, corrected / prob))
            assert [r.outcome_index for r in records] == [e[0] for e in expected_records]
            for r, (_, prob, cond, corr) in zip(records, expected_records):
                assert abs(r.probability - prob) < 1e-12
                assert np.max(np.abs(r.conditional_state.matrix - cond)) < 1e-12
                assert np.max(np.abs(r.corrected_state.matrix - corr)) < 1e-12
            assert np.max(np.abs(recovered - expected_recovered)) < 1e-12


class TestDilationFromDecomposition:
    def test_clock_env_vectors_uniform(self):
        d = 3
        dil = dilation_from_decomposition(decompose_identity_xi(d))
        assert dil.dim_env == d
        assert np.allclose(np.abs(dil.env_vectors), 1 / np.sqrt(d))

    def test_reproduces_same_channel_as_register_dilation(self, rng):
        d = 2
        dec = decompose_identity_xi(d)
        dil = dilation_from_decomposition(dec)
        scenario = eraser_scenario(d)
        rho = random_density(rng, d)
        out1 = partial_trace_env(evolve_joint(dil, rho), d, dil.dim_env)
        out2 = partial_trace_env(evolve_joint(scenario.dilation, rho), d, d)
        assert np.max(np.abs(out1 - out2)) < 1e-10

    def test_single_term_unitary_channel(self, rng):
        dec = random_flat_decomposition(rng, 3, 1)
        dec = type(dec)(dim=3, weights=np.array([1.0]), phase_vectors=dec.phase_vectors)
        dil = dilation_from_decomposition(dec)
        assert dil.dim_env == 2  # padded floor
        rho = random_density(rng, 3)
        out = partial_trace_env(evolve_joint(dil, rho), 3, 2)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        assert np.max(np.abs(out - apply_schrodinger(ch, rho).matrix)) < 1e-9

    def test_channel_reproduction_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 3)))
            ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
            dil = dilation_from_decomposition(dec)
            rho = random_density(rng, d)
            out = partial_trace_env(evolve_joint(dil, rho), d, dil.dim_env)
            assert np.max(np.abs(out - apply_schrodinger(ch, rho).matrix)) < 1e-9


class TestCorrectingPovm:
    def test_eraser_frame_is_fourier(self):
        scenario = eraser_scenario(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(scenario.povm.effects[0], plus)
        assert np.allclose(scenario.povm.effects[1], minus)
        scenario.povm.check_complete()


class TestRunCorrection:
    def test_qubit_eraser_plus_state(self):
        xi = validate_correlation(np.eye(2))
        ch = SchurChannel(xi)
        dec = decompose_identity_xi(2)
        rho = DensityMatrix.pure([1, 1])
        records, recovered = run_correction(ch, dec, rho)
        assert [r.outcome_index for r in records] == [0, 1]
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(recovered.matrix - rho.matrix)) < 1e-12

    def test_outcome_probabilities_independent_of_state(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 2)))
            ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
            records, _ = run_correction(ch, dec, random_density(rng, d))
            probs = {r.outcome_index: r.probability for r in records}
            for i, p in enumerate(dec.weights):
                assert probs.get(i, 0.0) == pytest.approx(p, abs=1e-9)

    def test_perfect_recovery_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 2)))
            ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
            rho = random_density(rng, d)
            _, recovered = run_correction(ch, dec, rho)
            assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-8

    def test_no_correction_marginal_is_bare_channel(self, rng):
        d = 3
        dec = random_flat_decomposition(rng, d, 4)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        rho = random_density(rng, d)
        records, _ = run_correction(ch, dec, rho)
        marginal = sum(r.probability * r.conditional_state.matrix for r in records)
        assert np.max(np.abs(marginal - apply_schrodinger(ch, rho).matrix)) < 1e-9

    def test_trivial_channel_single_outcome(self, rng):
        ch = SchurChannel(validate_correlation(np.ones((2, 2))))
        dec = decompose_qubit(ch.xi)
        rho = random_density(rng, 2)
        records, recovered = run_correction(ch, dec, rho)
        assert len(records) == 1
        assert np.max(np.abs(recovered.matrix - rho.matrix)) < 1e-10

    def test_mismatched_decomposition_rejected(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        with pytest.raises(VerificationFailure):
            run_correction(ch, decompose_identity_xi(3), random_density(rng, 3))

    def test_qutrit_search_results_recover(self, rng):
        for seed in range(10):
            xi = random_correlation(rng, 3)
            dec = flat_search(xi, SearchConfig(seed=seed))
            rho = random_density(rng, 3)
            _, recovered = run_correction(SchurChannel(xi), dec, rho)
            assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-7


class TestEraser:
    def test_d2_two_slit_setup(self):
        scenario = eraser_scenario(2)
        rho = DensityMatrix.pure([1, 1])
        records, recovered = run_eraser(scenario, rho)
        assert len(records) == 2
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-12)
        # outcome "+" leaves |+>, outcome "-" leaves |->; sigma_z undoes the latter
        plus = np.full((2, 2), 0.5)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(records[0].conditional_state.matrix, plus)
        assert np.allclose(records[1].conditional_state.matrix, minus)
        assert np.allclose(records[0].corrected_state.matrix, plus)
        assert np.allclose(records[1].corrected_state.matrix, plus)
        assert np.max(np.abs(recovered.matrix - rho.matrix)) < 1e-12

    def test_recovers_any_state(self, rng):
        for d in range(2, 9):
            scenario = eraser_scenario(d)
            for _ in range(5):
                rho = random_density(rng, d)
                _, recovered = run_eraser(scenario, rho)
                assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-9

    def test_outcome_entropy_is_log_d(self, rng):
        for d in (2, 3, 5):
            scenario = eraser_scenario(d)
            records, _ = run_eraser(scenario, random_density(rng, d))
            probs = [r.probability for r in records]
            assert shannon_entropy(probs) == pytest.approx(np.log2(d), abs=1e-10)
            assert scenario.info_stored_bits == pytest.approx(np.log2(d))

    def test_d1_rejected(self):
        with pytest.raises(BadDimension):
            eraser_scenario(1)

    def test_which_way_readout_destroys_coherence(self, rng):
        scenario = eraser_scenario(3)
        rho = random_density(rng, 3)
        records = which_way_readout(scenario, rho)
        for r in records:
            k = r.outcome_index
            assert r.probability == pytest.approx(rho.matrix[k, k].real, abs=1e-10)
            expected = np.zeros((3, 3))
            expected[k, k] = 1.0
            assert np.max(np.abs(r.conditional_state.matrix - expected)) < 1e-10


class TestScreenPattern:
    def test_maximally_mixed_is_flat(self):
        for d in (2, 4):
            pat = screen_pattern(DensityMatrix.from_matrix(np.eye(d) / d), 100)
            assert np.allclose(pat.intensities, 1 / d)
            assert pat.visibility == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_full_fringes(self):
        pat = screen_pattern(DensityMatrix.pure([1, 1]), 360)
        expected = (1 + np.cos(pat.thetas)) / 2
        assert np.max(np.abs(pat.intensities - expected)) < 1e-12
        assert pat.visibility == pytest.approx(1.0, abs=1e-12)

    def test_minus_subensemble_shifted_fringes(self):
        scenario = eraser_scenario(2)
        records, _ = run_eraser(scenario, DensityMatrix.pure([1, 1]))
        pat = screen_pattern(records[1].conditional_state, 360)
        expected = (1 - np.cos(pat.thetas)) / 2
        assert np.max(np.abs(pat.intensities - expected)) < 1e-10

    def test_visibility_dichotomy(self, rng):
        # decohered: no fringes; corrected subensembles: input visibility
        rho = random_density(rng, 2)
        v_in = screen_pattern(rho, 360).visibility
        decohered = DensityMatrix.from_matrix(np.diag(np.diag(rho.matrix)))
        assert screen_pattern(decohered, 360).visibility <= 1e-9
        scenario = eraser_scenario(2)
        records, _ = run_eraser(scenario, rho)
        for r in records:
            v = screen_pattern(r.corrected_state, 360).visibility
            assert v == pytest.approx(v_in, abs=1e-9)

    def test_sample_count_guard(self):
        with pytest.raises(BadDimension):
            screen_pattern(DensityMatrix.pure([1, 1]), 1)
