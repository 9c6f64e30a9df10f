import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from schurmaps import (
    DEFAULT_TOL,
    BadDimension,
    DensityMatrix,
    RecoveryFailure,
    SchurChannel,
    SchurMapsError,
    ToleranceProfile,
    VerificationFailure,
    apply_schrodinger,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    entropy_production_check,
    eraser_scenario,
    flat_search,
    iterate,
    majorization_check,
    partial_trace_env,
    reconstruct_xi,
    run_correction,
    run_eraser,
    screen_pattern,
    shannon_entropy,
    validate_correlation,
    which_way_readout,
)
from schurmaps import SearchConfig, serialize
from schurmaps.correction import CorrectionOutcomeRecord, EnvPovm, _measure_and_correct
from schurmaps.dilation import build_dilation, evolve_joint
from schurmaps.numerics import NEGLIGIBLE
from conftest import (
    random_correlation,
    random_density,
    random_flat_decomposition,
    random_pure,
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


def reference_measure_and_correct(c, heralded_phases, rho, tol):
    """``_measure_and_correct`` with every record state through the full ``from_matrix`` check."""
    rho_m = rho.matrix
    g = heralded_phases.conj().T * c
    probs = (np.abs(c) ** 2).T @ np.diag(rho_m).real

    def state(a, p):
        b = a * (1.0 / np.sqrt(p))
        return DensityMatrix.from_matrix(np.outer(b, b.conj()) * rho_m, tol)

    records = [
        CorrectionOutcomeRecord(
            outcome_index=i,
            probability=float(p),
            conditional_state=state(c[:, i], p),
            corrected_state=state(g[:, i], p),
        )
        for i, p in enumerate(probs)
        if p >= NEGLIGIBLE
    ]
    return records, rho_m * (g @ g.conj().T)


def records_bytes(records):
    """Outcome indices, probabilities and record states, as comparable bytes."""
    out = []
    for r in records:
        out.append(repr((r.outcome_index, r.probability)))
        for state in (r.conditional_state, r.corrected_state):
            m = state.matrix
            out.append((state.dim, m.shape, m.dtype.str, m.flags.writeable, m.tobytes()))
    return out


def outcome_bytes(measure, *args):
    """What a measurement returns, as comparable bytes, or the class of the error it raises."""
    try:
        records, recovered = measure(*args)
    except SchurMapsError as exc:
        return type(exc)
    return [recovered.tobytes()] + records_bytes(records)


EDGE_TOLS = [
    DEFAULT_TOL,
    ToleranceProfile(herm=1e-6, psd=1e-6, tr=1e-6),
    ToleranceProfile(herm=1e-12, psd=1e-12, tr=1e-12),
    ToleranceProfile(herm=1e-15, psd=1e-15, tr=1e-15),
]


@st.composite
def edge_inputs(draw):
    """A state at the edges of its tolerance profile, outcome amplitudes and heralded phases.

    Populations go down to 1e-12, the least eigenvalue to -tol.psd, the trace
    to 1 +- tol.tr and the Hermitian deviation up to tol.herm. The amplitudes
    are flat (weighted), register kets, Fourier or random.
    """
    tol = draw(st.sampled_from(EDGE_TOLS))
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, d))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    pops = np.array(draw(st.lists(st.floats(0, 12), min_size=d, max_size=d)))
    g *= 10.0 ** (-pops / 2)[:, None]
    m = g @ g.conj().T
    m /= m.trace().real
    _, vecs = np.linalg.eigh(m)
    m -= draw(st.floats(0, 1)) * tol.psd * np.outer(vecs[:, 0], vecs[:, 0].conj())
    m *= (1 + draw(st.floats(-1, 1)) * tol.tr) / m.trace().real
    skew = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    skew = (skew - skew.conj().T) / 2  # |skew_kl - conj(skew_lk)| = 2 |skew_kl|
    m += draw(st.floats(0, 1)) * tol.herm / 2 * skew / np.abs(skew).max()
    try:
        rho = DensityMatrix.from_matrix(m, tol)
    except SchurMapsError:
        reject()
    kind = draw(st.sampled_from(["flat", "register", "fourier", "random"]))
    n = d if kind in ("register", "fourier") else draw(st.integers(1, d + 2))
    if kind == "flat":
        c = np.sqrt(rng.dirichlet(np.ones(n)))[None, :] * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=(d, n))
        )
    elif kind == "register":
        c = np.eye(d, dtype=complex)
    elif kind == "fourier":
        k = np.arange(d)
        c = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
    else:
        c = (rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))) / np.sqrt(d * n)
    heralded = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, d)))
    return c, heralded, rho, tol


# d = 1, one outcome: a record product broadcast over a 3-d batch misses the
# record-at-a-time product by 1 ulp here; the 2-d product matches
def _hex_complex(re, im):
    return complex(float.fromhex(re), float.fromhex(im))


D1_ONE_OUTCOME = (
    np.array([[_hex_complex("0x1.b4fb1551ec501p-1", "-0x1.0ad16123cabf9p-1")]]),
    np.array([[_hex_complex("-0x1.915011ab5edf1p-1", "-0x1.3df3249c7d3adp-1")]]),
    DensityMatrix.from_matrix([[_hex_complex("0x1.0000000044b83p+0", "0x1.12e0be826d695p-31")]]),
    DEFAULT_TOL,
)


class TestRecordCertificate:
    @settings(max_examples=400, deadline=None)
    @given(edge_inputs())
    @example(D1_ONE_OUTCOME)
    def test_matches_full_check_on_every_record(self, inputs):
        # same error class, or byte-equal records and recovered state; and every
        # record built without its own eigensolve passes the full check
        certified = []
        build = DensityMatrix._certified.__func__

        def spy(cls, m):
            certified.append(m.copy())
            return build(cls, m)

        with mock.patch.object(DensityMatrix, "_certified", classmethod(spy)):
            got = outcome_bytes(_measure_and_correct, *inputs)
        assert got == outcome_bytes(reference_measure_and_correct, *inputs)
        tol = inputs[3]
        for m in certified:
            DensityMatrix.from_matrix(m, tol)

    @pytest.mark.parametrize("d", [12, 16, 24, 32])
    def test_benchmark_sizes_match_reference(self, rng, d):
        # the eraser sizes of the benchmark, beyond the reach of edge_inputs
        scenario = eraser_scenario(d)
        env = scenario.dilation.env_vectors
        c = env @ scenario.povm.effects.conj().T
        heralded = scenario.correction_phases.conj()
        ones = np.ones((d, d), dtype=complex)
        for rho in (DensityMatrix.pure(np.ones(d)), random_pure(rng, d), random_density(rng, d)):
            records, recovered = run_eraser(scenario, rho)
            got = [recovered.matrix.tobytes()] + records_bytes(records)
            expected = outcome_bytes(reference_measure_and_correct, c, heralded, rho, DEFAULT_TOL)
            assert got == expected
            # which-way records are closed form: the reference's outcomes and
            # probabilities to the bit, exact one-hot states within rounding of its states
            records = which_way_readout(scenario, rho)
            expected, _ = reference_measure_and_correct(env, ones, rho, DEFAULT_TOL)
            assert [repr((r.outcome_index, r.probability)) for r in records] == [
                repr((e.outcome_index, e.probability)) for e in expected
            ]
            for r, e in zip(records, expected):
                m = r.conditional_state.matrix
                one_hot = np.zeros((d, d), dtype=complex)
                one_hot[r.outcome_index, r.outcome_index] = 1.0
                assert m.dtype == complex and not m.flags.writeable
                assert np.array_equal(m, one_hot)
                assert np.max(np.abs(m - e.conditional_state.matrix)) <= 1e-15
                assert r.corrected_state is r.conditional_state

    def test_batch_memory(self, rng):
        # at its peak a d = 32 eraser call holds at most one (outcomes x d^2) complex
        # buffer beyond the records and recovered state it returns
        d = 32
        scenario = eraser_scenario(d)
        rho = random_density(rng, d)
        run_eraser(scenario, rho)
        tracemalloc.start()
        try:
            out = run_eraser(scenario, rho)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out[0]) == d
        assert peak - current <= d * d * d * np.dtype(complex).itemsize

    def test_eigensolves_per_call(self, rng, monkeypatch):
        # a validated state carries its spectrum, which certifies the records of a
        # call; only the recovered state has its own eigensolve
        calls = []
        for name in ("eigvalsh", "eigh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k)
            )

        def count(fn, *args):
            calls.clear()
            fn(*args)
            return len(calls)

        scenario = eraser_scenario(16)
        rho = random_density(rng, 16)
        assert count(run_eraser, scenario, rho) <= 1
        assert count(which_way_readout, scenario, rho) == 0
        d = 4
        dec = random_flat_decomposition(rng, d, 5)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        assert count(run_correction, ch, dec, random_density(rng, d)) <= 1

        def request(m_xi, m_rho):
            # one small-stream benchmark request: 5 validations (xi, rho, E(rho),
            # E^5(rho), the round trip), the recovered state, and E(rho) again and
            # the entropy exchange in entropy_production_check
            ch = SchurChannel(validate_correlation(m_xi))
            rho = DensityMatrix.from_matrix(m_rho)
            out = apply_schrodinger(ch, rho)
            out_n = iterate(ch, rho, 5)
            run_correction(ch, dec, rho)
            entropy_production_check(ch, rho)
            majorization_check(out)
            text = json.dumps(serialize.matrix_to_dict(out_n.matrix, "state"))
            serialize.density_from_dict(json.loads(text))

        m_rho = random_density(rng, d).matrix.copy()
        assert count(request, reconstruct_xi(dec), m_rho) <= 8


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

    def test_d_numpy_refuses_rejected(self):
        # 10**20 is past numpy's index range: refused before anything is allocated
        with pytest.raises(BadDimension, match="too large"):
            eraser_scenario(10**20)

    @pytest.mark.parametrize("d", [2.5, 3.0, "3"])
    def test_non_integral_d_rejected(self, d):
        with pytest.raises(BadDimension):
            eraser_scenario(d)
        with pytest.raises(BadDimension):
            decompose_identity_xi(d)

    def test_which_way_readout_tiny_population(self):
        # rho_11 = 1e-11 with an imaginary residue of 1e-10 passes from_matrix; a
        # record rho_11 |1><1| / p_1 would carry 1 + 10j and fail the Hermitian check
        rho = DensityMatrix.from_matrix(np.diag([1 - 1e-11, 1e-11 + 1e-10j]))
        records = which_way_readout(eraser_scenario(2), rho)
        assert [r.outcome_index for r in records] == [0, 1]
        assert [r.probability for r in records] == [1 - 1e-11, 1e-11]
        for r in records:
            assert np.array_equal(r.conditional_state.matrix, np.diag(np.eye(2)[r.outcome_index]))

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
        with pytest.raises(BadDimension, match="too large"):
            screen_pattern(DensityMatrix.pure([1, 1]), 10**20)  # refused before allocating

    @pytest.mark.parametrize("samples", [0, -3, True, 2.5, 3.0, "3", None])
    def test_non_integral_or_small_samples_rejected(self, samples):
        with pytest.raises(BadDimension):
            screen_pattern(DensityMatrix.pure([1, 1]), samples)

    def test_numpy_integer_samples(self):
        pat = screen_pattern(DensityMatrix.pure([1, 1]), np.int64(4))
        assert np.allclose(pat.intensities, [1, 0.5, 0, 0.5])

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 64, 200])
    @pytest.mark.parametrize("samples", [2, 3, 7, 360, 1000])
    def test_matches_ray_by_ray_sum(self, rng, d, samples):
        # the einsum over rays that the FFT replaced; S < 2d - 1 folds diagonals together
        thetas = 2.0 * np.pi * np.arange(samples) / samples
        rays = np.exp(1j * np.outer(thetas, np.arange(d))) / np.sqrt(d)  # row s = <k|theta_s>
        for rho in (random_density(rng, d), random_pure(rng, d)):
            expected = np.einsum("sk,kl,sl->s", rays.conj(), rho.matrix, rays).real
            i_max, i_min = expected.max(), expected.min()
            pat = screen_pattern(rho, samples)
            assert np.array_equal(pat.thetas, thetas)
            assert np.max(np.abs(pat.intensities - expected)) <= 1e-13
            assert abs(pat.visibility - (i_max - i_min) / (i_max + i_min)) <= 1e-13
