"""Environment-assisted correction of random-unitary decoherence channels.

The loop: dilate the channel so the environment records which diagonal
unitary acted, measure the environment with a rank-one POVM that reveals
the index, and undo that unitary on the system. The d-dimensional quantum
eraser is the flagship instance (instantaneous decoherence, Fourier
measurement on the probe, clock-unitary corrections).
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    CorrelationMatrix,
    DensityMatrix,
    SchurChannel,
    validate_correlation,
)
from .decomposition import (
    FlatDecomposition,
    _require_accepted,
    decompose_identity_xi,
    reconstruct_xi,
)
from .dilation import Dilation, _unit_dilation
from .errors import BadDimension, DimensionMismatch, RecoveryFailure, VerificationFailure
from .numerics import DEFAULT_TOL, NEGLIGIBLE, RESIDUAL_TOL, ToleranceProfile, _integer

__all__ = [
    "EnvPovm",
    "CorrectionOutcomeRecord",
    "EraserScenario",
    "ScreenPattern",
    "dilation_from_decomposition",
    "run_correction",
    "eraser_scenario",
    "run_eraser",
    "screen_pattern",
]

@dataclass(frozen=True)
class EnvPovm:
    """Rank-one POVM on the environment: effects |v_i><v_i| summing to I."""

    dim_env: int
    effects: np.ndarray  # shape (outcomes, dim_env), row i = |v_i>

    def check_complete(self) -> None:
        """Raise :class:`VerificationFailure` unless the effects sum to I within DEFAULT_TOL.tr,
        the condition that outcome probabilities sum to 1 for every state."""
        s = np.einsum("ia,ib->ab", self.effects, self.effects.conj())
        if not np.max(np.abs(s - np.eye(self.dim_env))) <= DEFAULT_TOL.tr:
            raise VerificationFailure("POVM effects do not sum to the identity")


@dataclass(frozen=True)
class CorrectionOutcomeRecord:
    outcome_index: int
    probability: float
    conditional_state: DensityMatrix  # post-measurement, pre-correction
    corrected_state: DensityMatrix


@dataclass(frozen=True)
class EraserScenario:
    """d-dimensional quantum eraser bundle.

    Probe-as-register dilation of the instantaneous decoherence channel
    (xi = I), the Fourier POVM on the probe, and the clock unitaries that
    undo each heralded outcome. The information ledger records that the
    register stores and the measurement extracts exactly log2(d) bits.
    """

    dim: int
    channel: SchurChannel
    dilation: Dilation
    povm: EnvPovm
    correction_phases: np.ndarray  # row j = diagonal of the unitary undoing outcome j
    info_stored_bits: float
    info_extracted_bits: float


@dataclass(frozen=True)
class ScreenPattern:
    thetas: np.ndarray
    intensities: np.ndarray
    visibility: float


def _term_amplitudes(dec: FlatDecomposition) -> np.ndarray:
    """Column i = sqrt(p_i) conj(u^(i)): the amplitudes <i|e_k> of the dilation
    of :func:`dilation_from_decomposition`, heralded by environment outcome i.
    Row-major: the layout sets the order in which BLAS sums the outcome
    probabilities, and with it the last bits of every record."""
    return np.ascontiguousarray(np.sqrt(dec.weights)[None, :] * dec.phase_vectors.conj().T)


def dilation_from_decomposition(
    dec: FlatDecomposition, tol: ToleranceProfile = DEFAULT_TOL
) -> Dilation:
    """Dilation whose environment basis labels the decomposition terms.

    Environment kets e_k = sum_i sqrt(p_i) conj(u_k^(i)) |i>, so the Gram
    matrix <e_k|e_l> reproduces xi and measuring the environment in the
    computational basis heralds the Kraus operator
    sqrt(p_i) diag(u^(i))^dagger of the Schrodinger action. The
    decomposition is verified against its own reconstruction of xi; each
    ket, of squared norm within ``tol.tr`` of 1, is divided by its norm.
    """
    _require_accepted(CorrelationMatrix(dec.dim, reconstruct_xi(dec)), dec, tol)
    return _unit_dilation(_term_amplitudes(dec))


def _measure_and_correct(
    c: np.ndarray,
    heralded_phases: np.ndarray,
    rho: DensityMatrix,
    tol: ToleranceProfile,
):
    """Project the environment on each effect and undo the heralded unitary.

    The joint state after the dilation is rho_kl |k><l| (x) |e_k><e_l|, so
    projecting the environment on |v_i> leaves rho o (c_i c_i*) with the
    outcome amplitudes c_ik = <v_i|e_k>, column i of ``c`` (d x outcomes):
    closed form, without the joint unitary. ``heralded_phases[i]`` is the
    diagonal of the unitary W_i heralded by outcome i; the correction
    conjugates by its inverse, which turns c_i into g_i = conj(W_i) c_i.
    Returns (records, recovered) with the recovered state
    sum_i rho o (g_i g_i*) = rho o (G G*), unnormalized-summed over outcomes.
    """
    if rho.dim != c.shape[0]:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {c.shape[0]}")
    rho_m = rho.matrix
    g = heralded_phases.conj().T * c  # column i = g_i
    probs = (np.abs(c) ** 2).T @ np.diag(rho_m).real
    kept = np.flatnonzero(probs >= NEGLIGIBLE)
    p = probs[kept]
    states = _record_states(rho, tol)
    records = [
        CorrectionOutcomeRecord(int(i), float(p_i), cond, corr)
        for i, p_i, cond, corr in zip(kept, p, states(c[:, kept], p), states(g[:, kept], p))
    ]
    return records, rho_m * (g @ g.conj().T)


def _record_states(rho: DensityMatrix, tol: ToleranceProfile):
    """The builder ``states(a, p)`` of the record states rho o (a_i a_i*)/p_i of one
    input, for the amplitude columns a_i of ``a`` (d x n) and their probabilities p.

    A record is D rho D*/p with D = diag(a). With F = max_k |a_k|^2/p, its
    Hermitian deviation is at most F times rho's, and its least eigenvalue is
    at least F min(0, lam_min(rho)) (Ostrowski). So rho's spectrum, which the
    state carries from its validation, certifies every record whose two
    bounds, widened by the rounding of the record's entries and of both
    eigensolves, stay within half of tol.herm and tol.psd, and whose trace
    passes the very test of ``from_matrix``. A certified record provably
    passes the full check and skips its eigensolve; any other record takes
    the full check.

    The n records of a call are built in one pass: one (n, d^2) batch of outer
    products, one product with rho, one division, one array of F and traces.
    The batch is then flagged read-only, and a certified record is a row of
    it, a read-only view, through :meth:`DensityMatrix._certified`. Each entry
    is the very expression ``rho_m * np.outer(a, a.conj()) / p`` of one record
    at a time, to the last bit: the operand order and the 2-d product keep
    numpy on the same elementwise loops.
    """
    rho_m = rho.matrix
    dev = abs(rho_m - rho_m.conj().T).max()  # rho is validated, so finite
    vals = rho._eigenvalues
    low, norm = max(0.0, -vals[0]), max(-vals[0], vals[-1]) + dev  # norm >= max |rho_kl|
    rounding = 64 * rho_m.shape[0] * np.finfo(float).eps * norm
    herm_bound, psd_bound = dev + rounding, low + rounding

    def states(a: np.ndarray, p: np.ndarray) -> list[DensityMatrix]:
        d, n = a.shape
        rows = np.ascontiguousarray(a.T)  # row i = a_i
        outer = rows[:, :, None] * rows.conj()[:, None, :]
        m = (rho_m.reshape(1, d * d) * outer.reshape(n, d * d)).reshape(n, d, d)
        m /= p[:, None, None]
        m.flags.writeable = False
        f = (np.abs(rows) ** 2).max(axis=1) / p
        ok = (
            (f * herm_bound <= tol.herm / 2)
            & (f * psd_bound <= tol.psd / 2)
            & (abs(np.trace(m, axis1=1, axis2=2).real - 1.0) <= tol.tr)
        )
        return [
            DensityMatrix._certified(m[i]) if ok[i] else DensityMatrix.from_matrix(m[i], tol)
            for i in range(n)
        ]

    return states


def _check_recovery(recovered, rho, tol) -> DensityMatrix:
    """The recovered state, or :class:`RecoveryFailure` if it misses rho by > RESIDUAL_TOL."""
    residual = float(np.linalg.norm(recovered - rho.matrix))
    if not residual <= RESIDUAL_TOL:
        raise RecoveryFailure(residual)
    return DensityMatrix.from_matrix(recovered, tol)


def run_correction(
    ch: SchurChannel,
    dec: FlatDecomposition,
    rho: DensityMatrix,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Full correction loop in the decomposition frame.

    Outcome i occurs with probability p_i regardless of the input (flat
    unitaries), heralds the Kraus sqrt(p_i) diag(u^(i))^dagger, and is
    undone by conjugation with the inverse unitary. A decomposition that
    :func:`verify_decomposition` rejects raises :class:`VerificationFailure`.
    The weighted sum of corrected states must reproduce rho within
    ``RESIDUAL_TOL``; a larger residual raises :class:`RecoveryFailure`.
    """
    _require_accepted(ch.xi, dec, tol)
    # outcome i heralds the Kraus sqrt(p_i) U_i^dagger of the Schrodinger action
    records, recovered = _measure_and_correct(
        _term_amplitudes(dec), dec.phase_vectors.conj(), rho, tol
    )
    return records, _check_recovery(recovered, rho, tol)


def eraser_scenario(d: int) -> EraserScenario:
    """The d-dimensional quantum eraser.

    The probe registers the which-way index (U |k>(x)|0> = |k>(x)|k>,
    xi = I). Measuring the probe in the Fourier basis
    |e~_j> = (1/sqrt d) sum_k e^{2 pi i jk/d} |k> heralds the clock unitary
    Z_j* up to phase; conjugating by Z_j restores any input state. Both the
    which-way record and the erasing measurement account for log2(d) bits.
    """
    d = _integer(d, 2, "eraser dimension d", BadDimension)
    try:  # numpy refuses a size past its index range before allocating anything
        probe = np.eye(d, dtype=complex)
    except ValueError as exc:
        raise BadDimension(f"eraser dimension d = {d} is too large: {exc}") from None
    # probe as register: e_k = |k>
    dil = Dilation(dim_sys=d, dim_env=d, env_vectors=probe)
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)  # row j = |e~_j>
    povm = EnvPovm(dim_env=d, effects=fourier)
    clock = decompose_identity_xi(d).phase_vectors  # row j = diagonal of Z_j
    return EraserScenario(
        dim=d,
        channel=SchurChannel(validate_correlation(np.eye(d))),  # xi = I passes every profile
        dilation=dil,
        povm=povm,
        correction_phases=clock,
        info_stored_bits=float(np.log2(d)),
        info_extracted_bits=float(np.log2(d)),
    )


def run_eraser(
    scenario: EraserScenario,
    rho: DensityMatrix,
    tol: ToleranceProfile = DEFAULT_TOL,
):
    """Run the eraser on a state: Fourier measurement, then Z_j correction."""
    # outcome j heralds Z_j^dagger, whose diagonal is the conjugate clock row
    heralded = scenario.correction_phases.conj()
    c = scenario.dilation.env_vectors @ scenario.povm.effects.conj().T  # column j = c_j
    records, recovered = _measure_and_correct(c, heralded, rho, tol)
    return records, _check_recovery(recovered, rho, tol)


def which_way_readout(scenario: EraserScenario, rho: DensityMatrix):
    """Measure the probe in the register basis instead of erasing.

    Outcome k occurs with probability rho_kk and leaves the system in |k><k|:
    the coherences are irreversibly destroyed in every subensemble. Closed
    form: the probe registers the path (e_k = |k>), so the records are the
    exact one-hot states, one read-only batch, and nothing is simulated.
    Nothing is undone, so each record holds one state object as both its
    conditional and its corrected state.
    """
    d = scenario.dim
    if rho.dim != d:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {d}")
    probs = np.diag(rho.matrix).real
    kept = np.flatnonzero(probs >= NEGLIGIBLE)
    states = np.zeros((kept.size, d, d), dtype=complex)
    states[np.arange(kept.size), kept, kept] = 1.0
    states.flags.writeable = False
    records = []
    for k, m in zip(kept, states):
        state = DensityMatrix._certified(m)
        records.append(CorrectionOutcomeRecord(int(k), float(probs[k]), state, state))
    return records


def screen_pattern(rho: DensityMatrix, samples: int) -> ScreenPattern:
    """Interference pattern of a state on a phase-ray screen.

    The screen rays are |theta> = (1/sqrt d) sum_k e^{i k theta} |k>, sampled
    uniformly on [0, 2 pi); intensity(theta) = <theta|rho|theta>. A toy
    readout model, not a physical propagator: it shows full fringes for pure
    flat superpositions, a flat line for decohered states, and shifted
    fringes for clock-rotated subensembles. ``samples`` must be an integer >= 2.
    """
    samples = _integer(samples, 2, "samples", BadDimension)
    d = rho.dim
    try:  # numpy refuses a size past its index range before allocating anything
        thetas = 2.0 * np.pi * np.arange(samples) / samples
    except ValueError as exc:
        raise BadDimension(f"samples = {samples} is too large: {exc}") from None
    # intensity(theta_s) = (1/d) sum_n t_n e^{2 pi i n s/S} with t_n = sum_{l-k=n} rho_kl;
    # the diagonal sums are taken mod S, so the sum is S/d times an inverse DFT
    k = np.arange(d)
    n = ((k[None, :] - k[:, None]) % samples).ravel()
    m = rho.matrix.ravel()
    t = np.bincount(n, m.real, samples) + 1j * np.bincount(n, m.imag, samples)
    intensities = (samples / d) * np.fft.ifft(t).real
    i_max, i_min = float(np.max(intensities)), float(np.min(intensities))
    visibility = (i_max - i_min) / (i_max + i_min) if i_max + i_min > 0 else 0.0
    return ScreenPattern(thetas=thetas, intensities=intensities, visibility=visibility)
