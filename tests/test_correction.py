import copy
import dataclasses
import json
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from schurmaps import (
    DEFAULT_TOL,
    BadDimension,
    DensityMatrix,
    FlatDecomposition,
    NotHermitian,
    NotPSD,
    NotState,
    RecoveryFailure,
    SchurChannel,
    SchurMapsError,
    ToleranceProfile,
    VerificationFailure,
    apply_schrodinger,
    bounds_report,
    build_dilation,
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
    verify_decomposition,
    which_way_readout,
)
from schurmaps import SearchConfig, channels, correction, decomposition, serialize
from schurmaps.channels import _read_only
from schurmaps.correction import (
    CorrectionOutcomeRecord,
    _record_traces,
    _recovery,
    _states,
    _term_amplitudes,
)
from schurmaps.dilation import evolve_joint
from schurmaps.numerics import NEGLIGIBLE, RESIDUAL_TOL
from conftest import (
    random_correlation,
    random_density,
    random_flat_decomposition,
    random_pure,
)


def projected_joint_state(dil, rho, v):
    """<v|_e U (rho (x) |0><0|) U* |v>_e from the joint unitary (unnormalized)."""
    joint = evolve_joint(dil, rho).reshape(dil.dim_sys, dil.dim_env, dil.dim_sys, dil.dim_env)
    return np.einsum("kalb,a,b->kl", joint, v.conj(), v)


class TestMeasureAndCorrectClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("frame", ["fourier", "random"])
    def test_matches_joint_unitary(self, d, frame, rng):
        # the two frames of the library: the eraser's register read in the Fourier
        # basis, and a random decomposition's environment read in its computational basis
        for trial in range(6):
            rho = random_density(rng, d) if trial % 2 else random_pure(rng, d)
            if frame == "fourier":
                scenario = eraser_scenario(d)
                dil, effects = scenario.dilation, scenario.povm.effects
                heralded = scenario.correction_phases.conj()
                records, recovered = run_eraser(scenario, rho)
            else:
                dec = random_flat_decomposition(rng, d, int(rng.integers(1, d + 3)))
                dil = dilation_from_decomposition(dec)
                effects = np.eye(dil.dim_env)
                # outcome i heralds U_i*; a padding outcome has probability 0
                heralded = np.ones((dil.dim_env, d), dtype=complex)
                heralded[: dec.terms] = dec.phase_vectors.conj()
                ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
                records, recovered = run_correction(ch, dec, rho)
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
            assert np.max(np.abs(recovered.matrix - expected_recovered)) < 1e-12


def reference_measure_and_correct(c, heralded_phases, rho, tol):
    """Records and recovered state of outcome amplitudes ``c`` (column i = c_i) and
    heralded diagonals ``heralded_phases`` (row i), every record state through the
    full ``from_matrix`` check."""
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
    """Outcome indices, probabilities and conditional states, as comparable bytes."""
    out = []
    for r in records:
        m = r.conditional_state.matrix
        out.append(repr((r.outcome_index, r.probability)))
        out.append((r.conditional_state.dim, m.shape, m.dtype.str, m.flags.writeable, m.tobytes()))
    return out


def record_rows(c, heralded_phases, rho):
    """The rows c_i / sqrt(p_i) of the kept outcomes, which a correction passes to
    ``_states``, then the rows g_i / sqrt(p_i), records of the same kind."""
    g = heralded_phases.conj().T * c
    probs = (np.abs(c) ** 2).T @ np.diag(rho.matrix).real
    kept = probs >= NEGLIGIBLE
    scale = np.tile(1.0 / np.sqrt(probs[kept]), 2)[:, None]
    return np.concatenate((c[:, kept].T, g[:, kept].T)) * scale


def states_bytes(build, *args):
    """The states ``build(*args)`` returns, as comparable bytes, or the error class."""
    try:
        states = build(*args)
    except SchurMapsError as exc:
        return type(exc)
    return [(s.dim, s.matrix.shape, s.matrix.dtype.str, s.matrix.flags.writeable,
             s.matrix.tobytes()) for s in states]


def certified_states(rho, b, g):
    """The states of ``_states`` for G = ``g``: each record's state, built on
    read where the call certified it, in row order, then the recovered state."""
    checked, recovered = _states(rho, b, *_recovery(g))
    records = [CorrectionOutcomeRecord._on_read(j, 1.0, b_j, rho) if s is None
               else CorrectionOutcomeRecord(j, 1.0, s, rho)
               for j, (b_j, s) in enumerate(zip(b, checked))]
    return [r.conditional_state for r in records] + [recovered]


def reference_states(rho, b, g, tol):
    """The states of ``_states`` through the full ``from_matrix`` check: the
    residual of the unnormalized sum first, as the correction loop has always
    judged it, then each record, then the sum over its trace."""
    rho_m = rho.matrix
    recovered = (g @ g.conj().T) * rho_m  # P o rho, the operand order of _states
    residual = float(np.linalg.norm(recovered - rho_m))
    if not residual <= RESIDUAL_TOL:
        raise RecoveryFailure(residual)
    states = [np.outer(r, r.conj()) * rho_m for r in b] + [recovered / recovered.trace().real]
    return [DensityMatrix.from_matrix(m, tol) for m in states]


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


# the least eigenvalue at -tol.psd and the trace at 1 - tol.tr: the recovered state,
# rho over its trace, falls just past -tol.psd, and the full check must refuse it
PSD_EDGE = (
    np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    np.ones((2, 2), dtype=complex),
    DensityMatrix.from_matrix(np.diag([1.0, -1e-9])),
    DEFAULT_TOL,
)


class TestRecordCertificate:
    @staticmethod
    def assert_matches_full_check(rho, b, g, tol):
        # same error class, or byte-equal states, each of which passes the full check
        got = states_bytes(certified_states, rho, b, g)
        assert got == states_bytes(reference_states, rho, b, g, tol)
        if isinstance(got, list):
            for state in certified_states(rho, b, g):
                DensityMatrix.from_matrix(state.matrix, tol)

    @settings(max_examples=400, deadline=None)
    @given(edge_inputs())
    @example(D1_ONE_OUTCOME)
    @example(PSD_EDGE)
    def test_matches_full_check_on_every_record(self, inputs):
        # one column of ones (G G* = J) recovers every input, so the records of
        # every draw are judged
        c, heralded, rho, tol = inputs
        b = record_rows(c, heralded, rho)
        self.assert_matches_full_check(rho, b, np.ones((rho.dim, 1)), tol)

    @settings(max_examples=400, deadline=None)
    @given(edge_inputs())
    @example(D1_ONE_OUTCOME)
    @example(PSD_EDGE)
    def test_recovered_state_matches_full_check(self, inputs):
        # the drawn heralded phases mostly fail the recovery, those of c undo it
        c, heralded, rho, tol = inputs
        b = record_rows(c, heralded, rho)
        for phases in (heralded, np.exp(1j * np.angle(c)).T):
            self.assert_matches_full_check(rho, b, phases.conj().T * c, tol)

    @settings(max_examples=100, deadline=None)
    @given(edge_inputs())
    def test_recovery_is_judged_first(self, inputs):
        # records of trace 4, which the full check refuses, and a sum of 4 rho,
        # which fails the recovery: the recovery's failure is raised
        c, heralded, rho, tol = inputs
        b = 2 * record_rows(c, heralded, rho)
        g = 2 * np.ones((rho.dim, 1))
        with pytest.raises(SchurMapsError):
            DensityMatrix.from_matrix(np.outer(b[0], b[0].conj()) * rho.matrix, tol)
        with pytest.raises(RecoveryFailure):
            _states(rho, b, *_recovery(g))

    @pytest.mark.parametrize("d", [12, 16, 24, 32])
    def test_benchmark_sizes_match_reference(self, rng, d):
        # the eraser sizes of the benchmark, beyond the reach of edge_inputs
        scenario = eraser_scenario(d)
        env = scenario.dilation.env_vectors
        c = _term_amplitudes(decompose_identity_xi(d))  # the clock frame
        heralded = scenario.correction_phases.conj()
        ones = np.ones((d, d), dtype=complex)
        for rho in (DensityMatrix.pure(np.ones(d)), random_pure(rng, d), random_density(rng, d)):
            # conditional states to the bit; every corrected state is the input state,
            # and the recovered state, over its trace, is within rounding of the reference's
            records, recovered = run_eraser(scenario, rho)
            expected, expected_recovered = reference_measure_and_correct(
                c, heralded, rho, DEFAULT_TOL
            )
            assert records_bytes(records) == records_bytes(expected)
            # a validated input is shared as it is; a pure one, which carries no
            # validation, by one read-only copy that every record shares
            shared = records[0].corrected_state
            assert (shared is rho) == (rho._dev is not None)
            for r, e in zip(records, expected):
                assert r.corrected_state is shared
                assert np.max(np.abs(rho.matrix - e.corrected_state.matrix)) <= 1e-15
            assert not recovered.matrix.flags.writeable
            assert np.max(np.abs(recovered.matrix - expected_recovered)) <= 1e-14
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

    @pytest.mark.parametrize("d", [2, 5])
    def test_input_trace_is_no_part_of_the_residual(self, rng, d):
        # a state of trace 1 + 5e-7, accepted with tr = 1e-6: the sum reproduces it
        # to rounding, so both loops return, and the recovered state has unit trace
        tol = ToleranceProfile(tr=1e-6)
        dec = random_flat_decomposition(rng, d, d + 1)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec), tol))
        for m in (random_pure(rng, d).matrix, random_density(rng, d).matrix):
            rho = DensityMatrix.from_matrix(m * (1 + 5e-7), tol)
            for run, args in ((run_eraser, (eraser_scenario(d),)), (run_correction, (ch, dec))):
                records, recovered = run(*args, rho)
                assert all(r.corrected_state is rho for r in records)
                assert abs(np.trace(recovered.matrix).real - 1.0) <= 1e-15
                assert np.max(np.abs(recovered.matrix * (1 + 5e-7) - rho.matrix)) <= 1e-14

    def test_writeable_input_is_copied_once(self, rng):
        # a directly built state on a caller's writeable array: every output is
        # built from one read-only copy, so later changes to the array reach none
        d = 4
        dec = random_flat_decomposition(rng, d, 5)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        for run, args in ((run_eraser, (eraser_scenario(d),)), (run_correction, (ch, dec))):
            m = random_density(rng, d).matrix.copy()
            rho = DensityMatrix(d, m)
            records, recovered = run(*args, rho)
            shared = records[0].corrected_state
            assert shared is not rho and not shared.matrix.flags.writeable
            assert np.array_equal(shared.matrix, m)
            assert all(r.corrected_state is shared for r in records)
            before = records_bytes(records) + [shared.matrix.tobytes(), recovered.matrix.tobytes()]
            m[0, 1] += 0.25
            m[1, 0] += 0.25
            after = records_bytes(records) + [shared.matrix.tobytes(), recovered.matrix.tobytes()]
            assert after == before

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        # a directly built state on a read-only view of a caller's writeable array
        # carries no validation, so it is copied: a record's state built on a later
        # read shows none of the caller's later changes
        a = np.eye(2) / 2
        v = a.view()
        v.flags.writeable = False
        rho = DensityMatrix(2, v)
        for run, args in ((run_eraser, (eraser_scenario(2),)),
                          (run_correction, (SchurChannel(validate_correlation(np.eye(2))),
                                            decompose_identity_xi(2)))):
            records, recovered = run(*args, rho)
            a[:] = np.diag([1.5, -0.5])
            for r in records:
                assert np.array_equal(r.conditional_state.matrix, np.eye(2) / 2)
                assert np.array_equal(r.corrected_state.matrix, np.eye(2) / 2)
            assert np.array_equal(recovered.matrix, np.eye(2) / 2)
            a[:] = np.eye(2) / 2

    def test_batch_memory(self, rng):
        # a d = 32 eraser call builds no record's state and takes rho's Hermitian
        # deviation from its validation: at its peak it holds 1.6 d x d complex
        # temporaries beyond what it returns (the records' closed-form traces take
        # one), and one more is the margin
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
        assert peak - current <= 2.6 * d * d * np.dtype(complex).itemsize

    def test_eigensolves_per_call(self, rng, monkeypatch):
        # a validated state carries its spectrum, which certifies the records and
        # the recovered state of a call: no eigensolve
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

        def read_all(run, *args):
            # every record and its conditional state, built on read
            records, _ = run(*args)
            return [r.conditional_state.matrix for r in records]

        scenario = eraser_scenario(16)
        rho = random_density(rng, 16)
        assert count(run_eraser, scenario, rho) == 0
        assert count(read_all, run_eraser, scenario, rho) == 0
        assert count(which_way_readout, scenario, rho) == 0
        d = 4
        dec = random_flat_decomposition(rng, d, 5)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        assert count(run_correction, ch, dec, random_density(rng, d)) == 0
        assert count(read_all, run_correction, ch, dec, random_density(rng, d)) == 0

        def request(m_xi, m_rho):
            # one small-stream benchmark request: 5 validations (xi, rho, E(rho),
            # E^5(rho), the round trip), and E(rho) again and the entropy exchange
            # in entropy_production_check
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
        assert count(request, reconstruct_xi(dec), m_rho) <= 7


def plain_correction(dec, rho):
    """Records and recovered state of the correction in the frame of ``dec``, by
    the plain formulas: each kept outcome's row b = c_i / sqrt(p_i), its state
    ``np.outer(b, b.conj()) * rho`` through ``from_matrix``, the input as its
    corrected state, and the recovered sum (G G*) o rho over its trace."""
    rho_m, tol = rho.matrix, rho._tol
    # row-major c, as the correction lays it out: BLAS sums the probabilities in that order
    c = np.ascontiguousarray(np.sqrt(dec.weights)[None, :] * dec.phase_vectors.conj().T)
    g = dec.phase_vectors.T * c
    probs = (np.abs(c) ** 2).T @ np.diag(rho_m).real
    records = []
    for i, p in enumerate(probs):
        if p >= NEGLIGIBLE:
            b = c[:, i] * (1.0 / np.sqrt(p))
            state = DensityMatrix.from_matrix(np.outer(b, b.conj()) * rho_m, tol)
            records.append(CorrectionOutcomeRecord(i, float(p), state, rho))
    recovered = (g @ g.conj().T) * rho_m
    return records, DensityMatrix.from_matrix(recovered / recovered.trace().real, tol)


def plain_which_way(rho):
    """The which-way records by the plain formula: p_k = rho_kk, the state |k><k|."""
    records = []
    for k, p in enumerate(np.diag(rho.matrix).real):
        if p >= NEGLIGIBLE:
            one_hot = np.zeros((rho.dim, rho.dim), dtype=complex)
            one_hot[k, k] = 1.0
            state = DensityMatrix(rho.dim, _read_only(one_hot))
            records.append(CorrectionOutcomeRecord(k, float(p), state, state))
    return records


def plain_screen(rho, samples):
    """(intensities, visibility) by the plain formula: S/d times the inverse FFT of
    the diagonal sums t_n = sum_{l-k=n} rho_kl folded mod S, each part summed by
    its own bincount."""
    d = rho.dim
    k = np.arange(d)
    n = ((k[None, :] - k[:, None]) % samples).ravel()
    m = rho.matrix.ravel()
    t = np.bincount(n, m.real, samples) + 1j * np.bincount(n, m.imag, samples)
    intensities = (samples / d) * np.fft.ifft(t).real
    i_max, i_min = float(intensities.max()), float(intensities.min())
    return intensities, (i_max - i_min) / (i_max + i_min) if i_max + i_min > 0 else 0.0


class TestKernelEquivalence:
    """Every output of the correction kernel, the which-way readout and the screen,
    byte-equal to the plain formulas, on the path where every outcome is kept and
    on the one where an outcome is dropped."""

    @staticmethod
    def assert_equal(records, expected):
        assert records_bytes(records) == records_bytes(expected)
        assert [r.corrected_state.matrix.tobytes() for r in records] == [
            e.corrected_state.matrix.tobytes() for e in expected
        ]

    @staticmethod
    def assert_screen_equal(rho, samples):
        pattern = screen_pattern(rho, samples)
        intensities, visibility = plain_screen(rho, samples)
        assert pattern.intensities.tobytes() == intensities.tobytes()
        assert repr(pattern.visibility) == repr(visibility)

    @staticmethod
    def states(rng, d):
        return [DensityMatrix.pure(np.ones(d)), random_pure(rng, d), random_density(rng, d)]

    @pytest.mark.parametrize("d", [2, 3, 12, 32])
    def test_eraser_keeps_every_outcome(self, rng, d):
        scenario = eraser_scenario(d)
        for rho in self.states(rng, d):
            records, recovered = run_eraser(scenario, rho)
            expected, expected_recovered = plain_correction(decompose_identity_xi(d), rho)
            assert len(records) == d
            self.assert_equal(records, expected)
            assert recovered.matrix.tobytes() == expected_recovered.matrix.tobytes()
            which = which_way_readout(scenario, rho)
            self.assert_equal(which, plain_which_way(rho))
            decohered = DensityMatrix(d, sum(r.probability * r.conditional_state.matrix
                                             for r in which))
            for state in (rho, decohered, recovered):
                for samples in (2, 7, 360):
                    self.assert_screen_equal(state, samples)

    @pytest.mark.parametrize("d", [2, 3, 12, 32])
    def test_correction_with_and_without_a_dropped_outcome(self, rng, d):
        dec = random_flat_decomposition(rng, d, d + 1)
        weights = dec.weights.copy()
        weights[1] += weights[0]
        weights[0] = 0.0  # a zero-weight term: its outcome has probability 0
        dropped = FlatDecomposition(d, weights, dec.phase_vectors)
        for decomposition, kept in ((dec, d + 1), (dropped, d)):
            ch = SchurChannel(validate_correlation(reconstruct_xi(decomposition)))
            for rho in self.states(rng, d):
                records, recovered = run_correction(ch, decomposition, rho)
                expected, expected_recovered = plain_correction(decomposition, rho)
                assert len(records) == kept
                self.assert_equal(records, expected)
                assert recovered.matrix.tobytes() == expected_recovered.matrix.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 12, 32])
    def test_which_way_drops_an_empty_population(self, rng, d):
        scenario = eraser_scenario(d)
        m = random_density(rng, d).matrix.copy()
        m[0, :] = m[:, 0] = 0.0  # still PSD: population 0 has no weight
        rho = DensityMatrix.from_matrix(m / m.trace().real)
        which = which_way_readout(scenario, rho)
        assert [r.outcome_index for r in which] == list(range(1, d))
        self.assert_equal(which, plain_which_way(rho))
        self.assert_screen_equal(rho, 360)


class TestRecordsOnRead:
    """The records of run_eraser and run_correction: each builds its certified
    conditional state on its first read and keeps it."""

    @staticmethod
    def runs(rng, d):
        rho = random_density(rng, d)
        dec = random_flat_decomposition(rng, d, d + 2)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        return [lambda: run_eraser(eraser_scenario(d), rho), lambda: run_correction(ch, dec, rho)]

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_reads_in_any_order(self, rng, d):
        for run in self.runs(rng, d):
            records, _ = run()
            n = len(records)
            expected = records_bytes(run()[0])  # read once, in order
            first = {int(i): records[int(i)].conditional_state for i in rng.permutation(n)}
            assert records_bytes(records) == expected
            # a repeat read returns the kept state
            assert all(records[i].conditional_state is first[i] for i in range(n))

    def test_probabilities_build_no_state(self, rng, monkeypatch):
        # the eraser's own readers take only the probabilities: no state is built
        # until one is read, and each only once
        built = []
        conditional = correction._conditional
        monkeypatch.setattr(correction, "_conditional", lambda *a: built.append(1) or conditional(*a))
        for run in self.runs(rng, 5):
            built.clear()
            records, _ = run()
            assert abs(sum(r.probability for r in records) - 1.0) <= 1e-12
            assert len(built) == 0
            states = [r.conditional_state for r in records] + [r.conditional_state for r in records]
            assert len(built) == len(records) and states[:len(records)] == states[len(records):]

    def test_replace_and_copy_keep_the_state(self, rng):
        records, _ = run_eraser(eraser_scenario(4), random_density(rng, 4))
        expected = records_bytes(run_eraser(eraser_scenario(4), records[0].corrected_state)[0])
        assert records_bytes([copy.copy(r) for r in records]) == expected
        assert records_bytes([dataclasses.replace(r) for r in records]) == expected
        with pytest.raises(AttributeError):
            records[0].no_such_field
        with pytest.raises(dataclasses.FrozenInstanceError):
            records[0].conditional_state = records[1].conditional_state

    def test_pickle_round_trip(self, rng):
        # numpy unpickles every array writeable: the records, and the states they
        # hold, flag them read-only again, a row kept for an unread state included
        def values(records):
            return [(r.outcome_index, r.probability, r.conditional_state.matrix.tobytes(),
                     r.corrected_state.matrix.tobytes()) for r in records]

        def arrays(records):
            rows = [r._row for r in records if r._row is not None]
            return rows + [m for r in records
                           for m in (r.conditional_state.matrix, r.corrected_state.matrix)]

        for run in self.runs(rng, 5):
            for read_before in (False, True):
                records, _ = run()
                expected = values(run()[0])
                if read_before:
                    records[1].conditional_state
                back = pickle.loads(pickle.dumps(records))
                assert len(back) == len(records)
                assert not any(a.flags.writeable for a in arrays(back))
                assert values(back) == expected
                assert values(records) == expected
                assert all(r.corrected_state is back[0].corrected_state for r in back)

    @settings(max_examples=200, deadline=None)
    @given(edge_inputs())
    @example(D1_ONE_OUTCOME)
    @example(PSD_EDGE)
    def test_closed_form_trace_is_the_states_trace(self, inputs):
        # the certificate's trace, to the bit, of each state a read builds
        c, heralded, rho, _ = inputs
        b = record_rows(c, heralded, rho)
        built = np.array([np.trace(np.outer(r, r.conj()) * rho.matrix).real for r in b])
        assert _record_traces(b, rho.matrix).tobytes() == built.tobytes()

    def test_refusal_is_raised_by_the_call(self, rng):
        # a valid state at the PSD edge, which the correction still refuses (an open
        # defect, pinned only for when it is raised): the call itself raises, so no
        # record is ever handed out to be read
        rho = DensityMatrix.from_matrix(np.diag([1.0, -1e-9]))
        with pytest.raises(NotPSD):
            run_eraser(eraser_scenario(2), rho)
        # a record of trace 4, which the full check refuses, beside a sum that
        # recovers rho: the record's refusal too comes from the call
        rho = random_density(rng, 3)
        with pytest.raises(NotState):
            _states(rho, 2 * np.ones((1, 3)), *_recovery(np.ones((3, 1))))


class TestWhichWayStates:
    """The one-hot states of which_way_readout, kept on the scenario for the
    profile object of the last readout."""

    @staticmethod
    def states(scenario, rho):
        return {r.outcome_index: r.conditional_state for r in which_way_readout(scenario, rho)}

    def test_repeat_call_returns_the_kept_states(self, rng):
        scenario = eraser_scenario(5)
        first = self.states(scenario, random_density(rng, 5))
        again = self.states(scenario, random_density(rng, 5))  # another state, one profile
        assert len(first) == 5 and first.keys() == again.keys()
        assert all(again[k] is first[k] for k in first)
        assert all(r.corrected_state is r.conditional_state
                   for r in which_way_readout(scenario, random_density(rng, 5)))

    def test_another_profile_gets_its_own_states(self, rng):
        scenario = eraser_scenario(4)
        m = random_density(rng, 4).matrix
        first = self.states(scenario, DensityMatrix.from_matrix(m))
        for tol in (ToleranceProfile(herm=1e-6, psd=1e-6, tr=1e-6), ToleranceProfile(), DEFAULT_TOL):
            states = self.states(scenario, DensityMatrix.from_matrix(m, tol))
            assert all(s._tol is tol for s in states.values())
        # the default profile's slot was replaced and built again: equal values, new objects
        assert all(states[k] is not first[k] for k in first)
        assert [s.matrix.tobytes() for s in states.values()] == [
            s.matrix.tobytes() for s in first.values()
        ]

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_states_stay_read_only_and_one_hot(self, rng, d):
        scenario = eraser_scenario(d)
        for tol in (DEFAULT_TOL, ToleranceProfile(tr=1e-6), DEFAULT_TOL):
            rho = DensityMatrix.from_matrix(random_density(rng, d).matrix, tol)
            for _ in range(2):
                for k, state in self.states(scenario, rho).items():
                    one_hot = np.zeros((d, d), dtype=complex)
                    one_hot[k, k] = 1.0
                    assert state.dim == d and state.matrix.dtype == complex
                    assert not state.matrix.flags.writeable
                    assert state.matrix.tobytes() == one_hot.tobytes()
                    with pytest.raises(ValueError):
                        state.matrix[k, k] = 2.0

    def test_repeat_call_allocates_no_state(self, rng):
        # the parent built a (d, d, d) batch on every call, 512 KiB at d = 32; a
        # repeat call now allocates, its records included, less than one d x d buffer
        d = 32
        scenario = eraser_scenario(d)
        rho = random_density(rng, d)
        which_way_readout(scenario, rho)
        tracemalloc.start()
        try:
            out = which_way_readout(scenario, rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == d
        assert peak < d * d * np.dtype(complex).itemsize

    def test_scenario_compare_repr_and_replace_ignore_the_kept_states(self, rng):
        scenario = eraser_scenario(3)
        before = repr(scenario)
        fresh = copy.copy(scenario)  # the same fields, nothing kept
        which_way_readout(scenario, random_density(rng, 3))
        assert scenario._which_way is not None and "_which_way" not in vars(fresh)
        assert scenario == fresh and repr(scenario) == before
        assert "_which_way" not in {f.name for f in dataclasses.fields(scenario)}
        assert "_which_way" not in vars(dataclasses.replace(scenario))


class TestCarriedDeviation:
    """rho's Hermitian deviation, carried from from_matrix to the correction."""

    @settings(max_examples=200, deadline=None)
    @given(edge_inputs())
    @example(D1_ONE_OUTCOME)
    @example(PSD_EDGE)
    def test_carried_deviation_is_the_matrix_deviation(self, inputs):
        rho = inputs[2]
        m = rho.matrix
        assert rho._dev.tobytes() == abs(m - m.conj().T).max().tobytes()

    def test_states_without_one_get_it_computed(self, rng):
        # a directly built state 4e-9 off Hermitian, above herm = 1e-9, trusted
        # unchecked: whether it holds a read-only or a writeable array, the call
        # computes its deviation, so no record is certified and the full check refuses
        d = 3
        m = random_density(rng, d).matrix.copy()
        m[0, 1] += 4e-9
        for matrix in (m.copy(), _read_only(m.copy())):
            rho = DensityMatrix(d, matrix)
            assert rho._dev is None
            with pytest.raises(NotHermitian):
                run_eraser(eraser_scenario(d), rho)
        # pure and replaced states carry none either, and give the validated state's outputs
        pure = random_pure(rng, d)
        validated = DensityMatrix.from_matrix(pure.matrix)
        expected = records_bytes(run_eraser(eraser_scenario(d), validated)[0])
        for rho in (pure, dataclasses.replace(validated)):
            assert rho._dev is None
            assert records_bytes(run_eraser(eraser_scenario(d), rho)[0]) == expected

    def test_the_carried_deviation_is_the_one_read(self, rng):
        # the state itself as one record (b = ones) is certified; a carried deviation
        # far above herm fails its certificate, so the call builds and checks it
        rho = random_density(rng, 4)
        b, g = np.ones((1, 4), dtype=complex), np.ones((4, 1))
        assert _states(rho, b, *_recovery(g))[0] == [None]
        object.__setattr__(rho, "_dev", 1.0)
        checked, _ = _states(rho, b, *_recovery(g))
        assert checked[0].matrix.tobytes() == rho.matrix.tobytes()


class TestPickleKeepsArraysReadOnly:
    """numpy unpickles every array writeable; each value object flags the
    arrays it holds, or keeps, read-only again, and a shallow copy flags none."""

    @staticmethod
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for value in obj:
                yield from TestPickleKeepsArraysReadOnly.arrays(value)
        elif dataclasses.is_dataclass(obj):
            for value in vars(obj).values():
                yield from TestPickleKeepsArraysReadOnly.arrays(value)

    def test_round_trip_keeps_every_array_read_only(self, rng):
        d = 4
        dec = random_flat_decomposition(rng, d, d + 1)
        xi = validate_correlation(reconstruct_xi(dec))
        ch = SchurChannel(xi)
        rho = random_density(rng, d)
        run_correction(ch, dec, rho)  # dec keeps its facts and its plan
        scenario = eraser_scenario(d)
        which_way_readout(scenario, rho)  # the scenario keeps its which-way states
        # xi keeps its factor and spectrum from build_dilation
        values = [rho, xi, dec, dilation_from_decomposition(dec), build_dilation(ch), scenario]
        for value in values:
            held = list(self.arrays(value))
            assert held and not any(a.flags.writeable for a in held)
            back = pickle.loads(pickle.dumps(value))
            arrays = list(self.arrays(back))
            assert len(arrays) == len(held)
            assert not any(a.flags.writeable for a in arrays)
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in held]
        assert len(list(self.arrays(pickle.loads(pickle.dumps(xi))))) == 3
        back = pickle.loads(pickle.dumps(scenario))
        assert self.states_bytes(back, rho) == self.states_bytes(scenario, rho)

    def test_shallow_copy_leaves_shared_arrays_alone(self, rng):
        # a state built directly on a caller's writeable array: a shallow copy shares
        # the array and leaves it writeable, a deep copy holds its own, read-only
        m = random_density(rng, 3).matrix.copy()
        rho = DensityMatrix(3, m)
        assert copy.copy(rho).matrix is m and m.flags.writeable
        deep = copy.deepcopy(rho)
        assert deep.matrix is not m and not deep.matrix.flags.writeable
        assert m.flags.writeable and np.array_equal(deep.matrix, m)

    @staticmethod
    def states_bytes(scenario, rho):
        return [(r.outcome_index, r.probability, r.conditional_state.matrix.tobytes())
                for r in which_way_readout(scenario, rho)]


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

    def test_keeps_the_report_for_the_callers_xi(self, monkeypatch):
        # verified against its own reconstruction from the facts the decomposition
        # keeps: the whole pipeline reconstructs xi once, and the caller's report stands
        xi = validate_correlation(np.eye(3))
        ch, dec = SchurChannel(xi), decompose_identity_xi(3)
        calls = []
        reconstruct = decomposition.reconstruct_xi
        monkeypatch.setattr(
            decomposition, "reconstruct_xi", lambda dec: calls.append(1) or reconstruct(dec)
        )
        report = verify_decomposition(xi, dec)
        dilation_from_decomposition(dec)
        run_correction(ch, dec, DensityMatrix.pure(np.ones(3)))
        bounds_report(ch, dec)
        assert len(calls) == 1
        assert verify_decomposition(xi, dec) == report


class TestCorrectionPlan:
    @pytest.fixture
    def builds(self, monkeypatch):
        # every plan starts from _term_amplitudes, and nothing else calls it
        calls = []
        amplitudes = correction._term_amplitudes
        monkeypatch.setattr(
            correction, "_term_amplitudes", lambda dec: calls.append(1) or amplitudes(dec)
        )
        return calls

    @staticmethod
    def outputs(records, recovered):
        return records_bytes(records) + [recovered.matrix.tobytes()]

    def test_one_plan_per_decomposition(self, rng, builds):
        d = 5
        dec = random_flat_decomposition(rng, d, d + 2)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        rho = random_density(rng, d)
        runs = [self.outputs(*run_correction(ch, dec, rho)) for _ in range(3)]
        assert len(builds) == 1
        dilation_from_decomposition(dec)
        assert len(builds) == 1
        fresh = FlatDecomposition(d, dec.weights, dec.phase_vectors)
        assert runs[0] == runs[1] == runs[2] == self.outputs(*run_correction(ch, fresh, rho))
        assert len(builds) == 2

    def test_one_plan_per_eraser_scenario(self, rng, builds):
        d = 6
        scenario = eraser_scenario(d)
        rho = random_density(rng, d)
        runs = [self.outputs(*run_eraser(scenario, rho)) for _ in range(3)]
        assert len(builds) == 1
        fresh = FlatDecomposition(d, np.full(d, 1 / d), scenario.correction_phases)
        assert runs[0] == runs[1] == runs[2] == self.outputs(*correction._correct(fresh, rho))
        assert len(builds) == 2

    def test_replace_and_round_trip_carry_no_plan(self, rng):
        d = 4
        dec = random_flat_decomposition(rng, d, 5)
        ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
        run_correction(ch, dec, random_density(rng, d))
        assert dec._plan is not None
        assert "_plan" not in vars(dataclasses.replace(dec))
        text = json.dumps(serialize.decomposition_to_dict(dec))
        assert "_plan" not in vars(serialize.decomposition_from_dict(json.loads(text)))

    def test_plan_is_read_only(self, rng):
        dec = random_flat_decomposition(rng, 4, 6)
        plan = correction._correction_plan(dec)
        assert correction._correction_plan(dec) is plan
        for a in (plan.c, plan.probs_t, plan.gg):
            assert not a.flags.writeable
        assert np.array_equal(plan.c, _term_amplitudes(dec))


class TestCorrectingPovm:
    def test_eraser_frame_is_fourier(self):
        scenario = eraser_scenario(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(scenario.povm.effects[0], plus)
        assert np.allclose(scenario.povm.effects[1], minus)
        scenario.povm.check_complete()

    def test_fourier_readout_is_the_clock_frame(self):
        # the register read in the Fourier basis gives the amplitudes of the clock
        # decomposition's environment read in its computational basis, to rounding
        for d in range(2, 65):
            scenario = eraser_scenario(d)
            fourier = scenario.dilation.env_vectors @ scenario.povm.effects.conj().T
            clock = FlatDecomposition(d, np.full(d, 1 / d), scenario.correction_phases)
            assert np.max(np.abs(fourier - _term_amplitudes(clock))) <= 4e-16 / np.sqrt(d)


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

    @pytest.mark.parametrize("d", [10**20, 2**63 - 1])
    def test_identity_xi_numpy_refuses_rejected(self, d):
        # refused before anything is allocated; numpy takes 2**63 - 1 as an empty range
        with pytest.raises(BadDimension, match="too large"):
            decompose_identity_xi(d)

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

    def test_povm_owns_its_effects(self):
        with pytest.raises(ValueError):
            eraser_scenario(3).povm.effects[0, 0] = 5
        effects = np.eye(2, dtype=complex)
        povm = correction.EnvPovm(2, effects)
        effects[0, 0] = 5
        assert povm.effects[0, 0] == 1 and not povm.effects.flags.writeable


class TestScenarioIsItsDimension:
    """d fixes the eraser: the scenario's one field is ``dim``, and the channel,
    dilation, POVM, phases and ledger are derived from it."""

    @staticmethod
    def built_from_d(d):
        """Each derived value, built from d as ``eraser_scenario`` built its fields."""
        clock = decompose_identity_xi(d).phase_vectors
        return {
            "channel": validate_correlation(np.eye(d)).matrix,
            "dilation": np.eye(d, dtype=complex),
            "povm": clock / np.sqrt(d),
            "correction_phases": clock,
            "info_stored_bits": float(np.log2(d)),
            "info_extracted_bits": float(np.log2(d)),
        }

    @staticmethod
    def derived(scenario):
        return {
            "channel": scenario.channel.xi.matrix,
            "dilation": scenario.dilation.env_vectors,
            "povm": scenario.povm.effects,
            "correction_phases": scenario.correction_phases,
            "info_stored_bits": scenario.info_stored_bits,
            "info_extracted_bits": scenario.info_extracted_bits,
        }

    def test_dim_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(correction.EraserScenario)] == ["dim"]
        assert repr(eraser_scenario(8)) == "EraserScenario(dim=8)"

    @pytest.mark.parametrize("d", [1, 2.5, "3", 10**20])
    def test_bad_dimension_rejected_when_built(self, d):
        with pytest.raises(BadDimension):
            correction.EraserScenario(d)

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_every_derived_value_is_the_one_built_from_d(self, d):
        scenario = correction.EraserScenario(np.int64(d))
        assert type(scenario.dim) is int and scenario.dim == d
        expected = self.built_from_d(d)
        for name, value in self.derived(scenario).items():
            if isinstance(value, float):
                assert type(value) is float and value == expected[name], name
            else:
                want = expected[name]
                assert value.dtype == want.dtype and value.shape == want.shape, name
                assert value.tobytes() == want.tobytes() and not value.flags.writeable, name
        assert scenario.dilation.dim_env == scenario.povm.dim_env == d
        clock = scenario._clock
        assert clock.weights.tobytes() == (np.full(d, 1.0) / d).tobytes()
        assert clock.phase_vectors is scenario.correction_phases

    def test_channel_dilation_and_povm_are_kept_nowhere(self):
        scenario = eraser_scenario(4)
        assert scenario.channel is not scenario.channel
        assert scenario.dilation is not scenario.dilation
        assert scenario.povm is not scenario.povm
        assert set(vars(scenario)) == {"dim", "_clock"}

    def test_replace_gives_a_consistent_scenario(self, rng):
        scenario = dataclasses.replace(eraser_scenario(3), dim=5)
        assert scenario == eraser_scenario(5)
        fresh = self.derived(eraser_scenario(5))
        for name, value in self.derived(scenario).items():
            assert np.array_equal(value, fresh[name]), name
        rho = random_density(rng, 5)
        assert records_bytes(run_eraser(scenario, rho)[0]) == records_bytes(
            run_eraser(eraser_scenario(5), rho)[0]
        )

    def test_compare_and_hash_by_d(self):
        assert eraser_scenario(3) == eraser_scenario(3) != eraser_scenario(4)
        assert hash(eraser_scenario(3)) == hash(eraser_scenario(3))
        assert len({eraser_scenario(d) for d in (2, 3, 3, 4, 2)}) == 3


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

    def test_refused_size_is_not_kept(self):
        correction._screen_geometry.cache_clear()
        with pytest.raises(BadDimension, match="too large"):
            screen_pattern(DensityMatrix.pure([1, 1]), 10**20)
        assert correction._screen_geometry.cache_info().currsize == 0

    def test_geometry_is_shared_read_only_and_bounded(self):
        bound = channels._KEPT_RECENT
        rho = DensityMatrix.pure([1, 1j, -1])
        for samples in (7, 360):
            pat = screen_pattern(rho, samples)
            assert not pat.thetas.flags.writeable
            assert np.array_equal(pat.thetas, 2 * np.pi * np.arange(samples) / samples)
            assert screen_pattern(rho, samples).thetas is pat.thetas
        for samples in range(2, bound + 10):
            screen_pattern(rho, samples)
            assert correction._screen_geometry.cache_info().currsize <= bound

    def test_large_screen_keeps_nothing(self):
        # a screen past the byte budget builds its geometry for the call alone
        rho = DensityMatrix.pure([1, 1, 1])
        screen_pattern(rho, 7)  # the small geometry and numpy's FFT plans are warm
        correction._screen_geometry.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pat = screen_pattern(rho, 10**7)
            assert pat.intensities.size == 10**7
            del pat
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2**20
        assert correction._screen_geometry.cache_info().currsize == 0

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
