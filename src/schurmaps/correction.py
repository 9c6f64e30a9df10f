"""Environment-assisted correction of random-unitary decoherence channels.

The loop: dilate the channel so the environment records which diagonal
unitary acted, measure the environment with a rank-one POVM that reveals
the index, and undo that unitary on the system. The d-dimensional quantum
eraser is the flagship instance (instantaneous decoherence, Fourier
measurement on the probe, clock-unitary corrections): the same loop in the
frame of the clock decomposition.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    DensityMatrix,
    SchurChannel,
    _derived,
    _kept,
    _kept_bounded,
    _ReadOnlyArrays,
    _read_only,
    _schur_bounds,
    validate_correlation,
)
from .decomposition import (
    FlatDecomposition,
    _report,
    _require_accepted,
    decompose_identity_xi,
    verify_decomposition,
)
from .dilation import Dilation, _unit_dilation
from .errors import (
    BadDimension, DimensionMismatch, RecoveryFailure, ShapeMismatch, VerificationFailure
)
from .numerics import (
    DEFAULT_TOL,
    NEGLIGIBLE,
    RESIDUAL_TOL,
    ToleranceProfile,
    _ArrayFields,
    _integer,
)

__all__ = [
    "EnvPovm",
    "CorrectionOutcomeRecord",
    "EraserScenario",
    "ScreenPattern",
    "dilation_from_decomposition",
    "run_correction",
    "eraser_scenario",
    "run_eraser",
    "which_way_readout",
    "screen_pattern",
]

@dataclass(frozen=True, eq=False)
class EnvPovm(_ReadOnlyArrays):
    """Rank-one POVM on the environment: read-only effects |v_i><v_i| summing to I."""

    dim_env: int
    effects: np.ndarray  # shape (outcomes, dim_env), row i = |v_i>

    def __post_init__(self):
        object.__setattr__(self, "effects", _read_only(np.array(self.effects)))

    def check_complete(self) -> None:
        """Raise :class:`VerificationFailure` unless the effects sum to I within DEFAULT_TOL.tr,
        the condition that outcome probabilities sum to 1 for every state."""
        if np.shape(self.effects)[1:] != (self.dim_env,):
            raise ShapeMismatch(f"effects must have shape (outcomes, {self.dim_env})")
        s = np.einsum("ia,ib->ab", self.effects, self.effects.conj())
        if not np.max(np.abs(s - np.eye(self.dim_env))) <= DEFAULT_TOL.tr:
            raise VerificationFailure("POVM effects do not sum to the identity")


@dataclass(frozen=True, eq=False)
class CorrectionOutcomeRecord(_ReadOnlyArrays):
    """One kept outcome of a correction: its probability, the state it leaves
    (read-only, certified from the input's carried spectrum or fully checked)
    and the state after the heralded unitary is undone. That is the input
    state exactly, so the records of one call share one read-only state
    object. The records of :func:`run_correction` and :func:`run_eraser` build
    a certified conditional state on its first read and keep it, so a repeat
    read returns the same object and a caller that reads only the
    probabilities builds no state; a state that fails its certificate is
    built and checked by the call, so a refusal is raised by the call. A
    pickle round trip keeps every array it holds read-only."""

    outcome_index: int
    probability: float
    conditional_state: DensityMatrix  # post-measurement, pre-correction
    corrected_state: DensityMatrix
    # a class default, not a field: an _on_read record holds its row b in its instance
    _row = None

    # The two builders below skip the frozen ``__init__`` and store each value
    # straight into the new record's ``__dict__``: a call builds up to T records,
    # and a keyword ``dict.update`` costs about a third more per record.

    @classmethod
    def _uncorrected(cls, outcome_index: int, probability: float,
                     state: DensityMatrix) -> "CorrectionOutcomeRecord":
        """The record of a kept outcome that nothing corrects: ``state`` is both
        its conditional and its corrected state."""
        record = object.__new__(cls)
        kept = record.__dict__
        kept["outcome_index"] = outcome_index
        kept["probability"] = probability
        kept["conditional_state"] = kept["corrected_state"] = state
        return record

    @classmethod
    def _on_read(cls, outcome_index: int, probability: float, row: np.ndarray,
                 rho: DensityMatrix) -> "CorrectionOutcomeRecord":
        """The record of a kept outcome whose state rho o (row row*) its
        correction certified: the state is built on the first read of
        ``conditional_state``, by :meth:`__getattr__`."""
        record = object.__new__(cls)
        kept = record.__dict__
        kept["outcome_index"] = outcome_index
        kept["probability"] = probability
        kept["corrected_state"] = rho
        kept["_row"] = row
        return record

    def __getattr__(self, name):
        # reached only for an attribute not set: the state of an _on_read record, on first
        # read. A field has no class default for _kept to read, so the state is kept here
        if name != "conditional_state" or self._row is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state = _conditional_state(self)
        object.__setattr__(self, name, state)
        return state


def _conditional_state(record: CorrectionOutcomeRecord) -> DensityMatrix:
    """The state rho o (row row*) of an ``_on_read`` record, read-only, carrying rho's profile."""
    rho = record.corrected_state
    return _derived(_conditional(record._row, rho.matrix), rho)


@dataclass(frozen=True)
class EraserScenario:
    """The d-dimensional quantum eraser, which its one field, d, fixes.

    The probe registers the which-way index (U |k>(x)|0> = |k>(x)|k>, so
    xi = I). Reading it in the Fourier basis |e~_j> = (1/sqrt d) sum_k
    e^{2 pi i jk/d} |k> heralds the clock unitary Z_j* up to phase, and
    conjugating by Z_j restores any input state. The which-way record and
    the erasing measurement each account for log2(d) bits.

    ``dim`` is checked as by :func:`decompose_identity_xi` and kept as an
    int, so scenarios compare and hash by d. The scenario keeps the clock
    decomposition that :func:`run_eraser` corrects in, whose phases are
    ``correction_phases``; its channel, dilation and POVM are built on each
    read and kept nowhere. From the first :func:`which_way_readout` on, it
    also keeps the d one-hot states |k><k| it hands out (d^3 complex
    numbers), carrying the profile of the last state read out.
    """

    dim: int
    # a class default, not a field: the first which_way_readout keeps the states in the instance
    _which_way = None

    def __post_init__(self):
        clock = decompose_identity_xi(self.dim)
        object.__setattr__(self, "dim", clock.dim)
        object.__setattr__(self, "_clock", clock)

    @property
    def correction_phases(self) -> np.ndarray:  # row j = diagonal of Z_j
        return self._clock.phase_vectors

    @property
    def info_stored_bits(self) -> float:
        return float(np.log2(self.dim))

    info_extracted_bits = info_stored_bits

    @property
    def channel(self) -> SchurChannel:  # xi = I passes every profile
        return SchurChannel(validate_correlation(np.eye(self.dim)))

    @property
    def dilation(self) -> Dilation:  # the probe as register: e_k = |k>
        return Dilation(self.dim, self.dim, np.eye(self.dim, dtype=complex))

    @property
    def povm(self) -> EnvPovm:  # the Fourier basis: row j = |e~_j>
        return EnvPovm(self.dim, self.correction_phases / np.sqrt(self.dim))


@dataclass(frozen=True, eq=False)
class ScreenPattern(_ArrayFields):
    thetas: np.ndarray
    intensities: np.ndarray
    visibility: float


def _term_amplitudes(dec: FlatDecomposition) -> np.ndarray:
    """Column i = sqrt(p_i) conj(u^(i)): the amplitudes <i|e_k> of the dilation
    of :func:`dilation_from_decomposition`, heralded by environment outcome i.
    Row-major: the layout sets the order in which BLAS sums the outcome
    probabilities, and with it the last bits of every record."""
    return np.ascontiguousarray(np.sqrt(dec.weights)[None, :] * dec.phase_vectors.conj().T)


class _Plan(NamedTuple):
    """What a correction in the frame of one decomposition needs of the
    decomposition alone; every array is read-only."""

    c: np.ndarray  # column i = c_i, as _term_amplitudes lays it out
    rows: np.ndarray  # row i = c_i: c transposed and row-major, so the record rows b are too
    probs_t: np.ndarray  # |c|^2 transposed: the outcome probabilities are probs_t @ diag(rho)
    terms: int  # T, the columns g_i = u^(i) o c_i of G
    gg: np.ndarray  # G G*
    g_bound: float  # sum_i max_k |g_ik|^2, the recovered row's certificate factor times its trace


def _recovery(g: np.ndarray):
    """(T, G G*, sum_i max_k |g_ik|^2) of G = ``g`` of T columns, G G* read-only:
    what :func:`_states` needs of the recovered row."""
    return g.shape[1], _read_only(g @ g.conj().T), (np.abs(g) ** 2).max(axis=0).sum()


def _correction_plan(dec: FlatDecomposition) -> _Plan:
    """The correction plan of ``dec``, built on its first correction and kept on it."""
    return _kept(dec, "_plan", _plan_of)


def _plan_of(dec: FlatDecomposition) -> _Plan:
    c = _read_only(_term_amplitudes(dec))
    return _Plan(c, _read_only(c.T.copy()), _read_only(np.abs(c) ** 2).T,
                 *_recovery(dec.phase_vectors.T * c))


def dilation_from_decomposition(
    dec: FlatDecomposition, tol: ToleranceProfile = DEFAULT_TOL
) -> Dilation:
    """Dilation whose environment basis labels the decomposition terms.

    Environment kets e_k = sum_i sqrt(p_i) conj(u_k^(i)) |i>, so the Gram
    matrix <e_k|e_l> reproduces xi and measuring the environment in the
    computational basis heralds the Kraus operator
    sqrt(p_i) diag(u^(i))^dagger of the Schrodinger action. The
    decomposition is verified under ``tol`` against its own reconstruction of
    xi, which has no validated matrix to carry a profile, from the facts
    ``dec`` keeps (:func:`~schurmaps.decomposition.verify_decomposition`), so
    no verification before or after it reconstructs xi again. Each ket, of
    squared norm within ``tol.tr`` of 1, is divided by its norm.
    """
    _require_accepted(_report(dec, tol))
    return _unit_dilation(_correction_plan(dec).c)


def _correct(dec: FlatDecomposition, rho: DensityMatrix):
    """Measure the environment of :func:`dilation_from_decomposition` in its
    computational basis and undo the heralded unitary; returns (records, recovered).

    The joint state after the dilation is rho_kl |k><l| (x) |e_k><e_l|, so
    outcome i leaves rho o (c_i c_i*) with c_i column i of
    :func:`_term_amplitudes`: closed form, without the joint unitary. Kept
    outcome i's conditional state is rho o (b_i b_i*), b_i = c_i / sqrt(p_i),
    and the recovered state is rho o (G G*), column i of G being
    g_i = u^(i) o c_i: :func:`_states` builds the recovered state and certifies
    them all. What depends on ``dec`` alone, c and its rows, |c|^2, G's width,
    G G* and the recovered row's certificate factor, is the plan that ``dec``
    keeps from its first correction on; b, the products with rho and every
    test are per call. Outcome i heralds the Kraus sqrt(p_i) U_i* of the
    Schrodinger action, and undoing it gives back rho exactly, so every
    record's corrected state is one shared read-only state: ``rho`` itself
    when it carries its validation (its matrix is then its own), else one
    read-only copy of it, which every output is built from. Every state is
    judged under, and carries, the profile of ``rho``.

    One code path, whichever outcomes are kept: b is the plan's rows times
    1/sqrt(p), one product, and the rows are read through an index of the
    kept outcomes only where an outcome falls below ``NEGLIGIBLE``. Where
    every outcome is kept, as in the eraser's clock frame (p_j = tr rho / d),
    no index is built and no row is copied; the rows and b are row-major
    either way, so every output is the one the indexed rows give, to the bit.

    A record's conditional state is built on its first read (see
    :class:`CorrectionOutcomeRecord`) unless it failed its certificate: then
    the call built and fully checked it, so a refusal is raised here.
    """
    if rho.dim != dec.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {dec.dim}")
    if rho._dev is None:  # not validated, so a caller may hold its matrix: no output shares it
        rho = _derived(rho.matrix.copy(), rho)
    plan = _correction_plan(dec)
    probs = plan.probs_t @ rho.matrix.diagonal().real
    # the least probability settles whether an index is needed; NaN fails it, as it fails the index
    kept = slice(None) if probs.min() >= NEGLIGIBLE else np.flatnonzero(probs >= NEGLIGIBLE)
    p = probs[kept]
    b = _read_only(plan.rows[kept] * (1.0 / np.sqrt(p))[:, None])
    checked, recovered = _states(rho, b, plan.terms, plan.gg, plan.g_bound)
    outcomes = range(plan.terms) if type(kept) is slice else kept.tolist()
    on_read = CorrectionOutcomeRecord._on_read
    records = [
        on_read(i, p_i, b_i, rho) if state is None else CorrectionOutcomeRecord(i, p_i, state, rho)
        for i, p_i, b_i, state in zip(outcomes, p.tolist(), b, checked)
    ]
    return records, recovered


def _conditional(b_j: np.ndarray, rho_m: np.ndarray) -> np.ndarray:
    """The matrix rho o (b_j b_j*) of a record's state."""
    return np.outer(b_j, b_j.conj()) * rho_m


def _record_traces(b: np.ndarray, rho_m: np.ndarray) -> np.ndarray:
    """The traces of the states rho o (b_j b_j*), one per row b_j of ``b``, in
    closed form: sum_k (b_jk conj(b_jk)) rho_kk, the very products and sum that
    ``np.trace`` takes of :func:`_conditional`, so each is that trace to the
    last bit, without the state. The products are taken in place, in the
    same operand order, so the call holds one complex temporary of the shape
    of ``b``."""
    products = b.conj().astype(complex, copy=False)
    np.multiply(b, products, out=products)
    products *= rho_m.diagonal()
    return products.sum(axis=1).real


def _frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of a complex ``a``, the two dot products that
    ``np.linalg.norm(a)`` takes, to the bit, without its wrapper."""
    x = a.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _states(rho: DensityMatrix, b: np.ndarray, terms: int, gg: np.ndarray, g_bound):
    """The states of one correction, (checked, recovered): the recovered state
    rho o (G G*) over its trace, G of T = ``terms`` columns, and, for each row
    b_i of ``b``, the record's state rho o (b_i b_i*) where it failed its
    certificate, else None, for its record to build on read; ``gg`` and
    ``g_bound`` are G G* and sum_i max_k |g_ik|^2, as :func:`_recovery` gives
    them.

    The recovered sum must reproduce rho within ``RESIDUAL_TOL``, judged before
    the division, so that rho's own trace deviation is no part of the residual;
    a larger residual raises :class:`RecoveryFailure` before any state is
    built or judged. Its trace is tr(rho) times the weight sum, up to flatness,
    so dividing by it keeps a trace deviation of the state from stacking on the
    decomposition's.

    Each state is rho o P with P PSD and max_k P_kk <= f: f = max_k |b_k|^2
    for a record, sum_i max_k |g_ik|^2 over the trace for the recovered
    state, so f times the bounds of :func:`~schurmaps.channels._schur_bounds`
    certifies it; states that fail take the full check here, the records' in
    row order before the recovered state. rho's Hermitian deviation is the
    one ``rho`` carries from validation, computed here only for the copy
    :func:`_correct` takes of a state built directly or by ``pure``.

    A record's certificate needs no state: its trace is
    :func:`_record_traces`, its f a row maximum of |b|^2. Both bounds grow
    with f, so the largest f of the records, the square of the largest
    |b_ik|, passes them exactly when every record's does; the traces pass
    exactly when the one farthest from 1 does. So a call whose states all
    pass tests the largest f, the recovered state's f and the extreme trace,
    as scalars; only a call where one of those fails takes the verdicts row
    by row, so each verdict is the one the full vectors give, to the bit.
    """
    n = len(b)
    rho_m, tol = rho.matrix, rho._tol
    recovered = gg * rho_m
    residual = _frobenius(recovered - rho_m)
    if not residual <= RESIDUAL_TOL:
        raise RecoveryFailure(residual)
    t = recovered.trace().real
    recovered /= t
    dev = rho._dev
    if dev is None:
        dev = abs(rho_m - rho_m.conj().T).max()
    # G G*'s T-term sums, the product with rho and the division by t stay within
    # (T/2 + 3) eps of |P_kl| |rho_kl| an entry, a record's two products within 3 eps
    herm, psd = _schur_bounds(rho, dev, terms / 2 + 3)
    herm_room, psd_room = tol.herm / 2, tol.psd / 2
    f_recovered, trace_recovered = g_bound / t, recovered.trace().real
    largest = np.abs(b).max() if n else np.nan  # no record: the row-by-row path
    f_max = largest * largest  # the square that ``** 2`` takes of each |b_ik|
    traces = _record_traces(b, rho_m)
    if (
        f_max * herm <= herm_room and f_max * psd <= psd_room
        and f_recovered * herm <= herm_room and f_recovered * psd <= psd_room
        and abs(traces - 1.0).max() <= tol.tr and abs(trace_recovered - 1.0) <= tol.tr
    ):
        return [None] * n, _derived(recovered, rho)
    f = np.append((np.abs(b) ** 2).max(axis=1), f_recovered)
    ok = (
        (f * herm <= herm_room)
        & (f * psd <= psd_room)
        & (abs(np.append(traces, trace_recovered) - 1.0) <= tol.tr)
    )
    checked = [None if ok[i] else DensityMatrix.from_matrix(_conditional(b[i], rho_m), tol)
               for i in range(n)]
    if ok[n]:  # a fresh array that no caller holds
        return checked, _derived(recovered, rho)
    return checked, DensityMatrix.from_matrix(recovered, tol)


def run_correction(ch: SchurChannel, dec: FlatDecomposition, rho: DensityMatrix):
    """Full correction loop in the decomposition frame.

    Outcome i occurs with probability p_i regardless of the input (flat
    unitaries), heralds the Kraus sqrt(p_i) diag(u^(i))^dagger, and is
    undone by conjugation with the inverse unitary, which gives back rho: each
    record's corrected state is the input state. A decomposition that
    :func:`verify_decomposition` rejects (under the profile of ``ch.xi``)
    raises :class:`VerificationFailure`.
    The recovered state, the sum over outcomes computed from the decomposition,
    must reproduce rho within ``RESIDUAL_TOL``; a larger residual raises
    :class:`RecoveryFailure` before any record is built. It is returned
    divided by its trace. Every state is certified without an eigensolve
    (:func:`~schurmaps.channels._schur_bounds`) or fully checked, under the
    profile of ``rho``, which it carries.

    Returns (records, recovered), ``records`` a list. A record's conditional
    state is built on its first read and kept, so a repeat read returns the
    same object and reading only the probabilities builds no state. A state
    that fails its certificate is built and checked by the call, so a refusal
    (:class:`NotPSD`, :class:`NotState`, ...) is raised here, never on a read.
    """
    _require_accepted(verify_decomposition(ch.xi, dec))
    return _correct(dec, rho)


def eraser_scenario(d: int) -> EraserScenario:
    """The d-dimensional quantum eraser, :class:`EraserScenario` of ``d``."""
    return EraserScenario(d)


def run_eraser(scenario: EraserScenario, rho: DensityMatrix):
    """Run the eraser on a state: Fourier measurement, then Z_j correction.

    With register kets e_k = |k>, outcome j's amplitudes <e~_j|e_k> are
    (1/sqrt d) conj(Z_j)_kk, those of outcome j of the clock decomposition's
    environment read in the computational basis. So this is the correction
    loop of :func:`run_correction` in the clock frame, judged under the profile
    of ``rho``, and in the clock decomposition that ``scenario`` keeps, with its plan.
    Its (records, recovered) are those of :func:`run_correction`: each record's
    conditional state built on its first read, a refusal raised by this call.
    """
    return _correct(scenario._clock, rho)


def _which_way_states(scenario: EraserScenario, rho: DensityMatrix) -> tuple:
    """The d read-only one-hot states |k><k| of ``scenario``, rows of one batch,
    each carrying the profile of ``rho``: the ones ``scenario`` keeps if they
    carry that profile object, else built and kept in their place."""
    kept = scenario._which_way
    if kept is None or kept[0] is not rho._tol:
        d = scenario.dim
        batch = np.zeros((d, d, d), dtype=complex)
        k = np.arange(d)
        batch[k, k, k] = 1.0
        batch.flags.writeable = False
        kept = rho._tol, tuple(_derived(m, rho) for m in batch)
        object.__setattr__(scenario, "_which_way", kept)
    return kept[1]  # the slot read or built here: another call may replace it meanwhile


def which_way_readout(scenario: EraserScenario, rho: DensityMatrix):
    """Measure the probe in the register basis instead of erasing.

    Outcome k occurs with probability rho_kk and leaves the system in |k><k|:
    the coherences are irreversibly destroyed in every subensemble. Closed
    form: the probe registers the path (e_k = |k>), so the records are the
    exact one-hot states, and nothing is simulated. Those states depend on
    the scenario alone, and on the profile of ``rho``, which each carries:
    ``scenario`` keeps them, read-only, for the profile of the last call, so
    a repeat call under that profile object hands out the same state objects.
    Nothing is undone, so each record holds one state object as both its
    conditional and its corrected state. The populations are read in one
    pass, as floats, and an outcome below ``NEGLIGIBLE`` is skipped as its
    record would be built: no index array and no second pass.
    """
    d = scenario.dim
    if rho.dim != d:
        raise DimensionMismatch(f"state dim {rho.dim} != system dim {d}")
    states = _which_way_states(scenario, rho)
    uncorrected = CorrectionOutcomeRecord._uncorrected
    return [uncorrected(k, p, states[k])
            for k, p in enumerate(rho.matrix.diagonal().real.tolist()) if p >= NEGLIGIBLE]


@_kept_bounded(lambda d, samples: 8 * (samples + 2 * d * d))  # S angles, 2 d^2 bins
def _screen_geometry(d: int, samples: int):
    """The ray angles theta_s = 2 pi s/S and, for the real and the imaginary
    part of each entry of a d x d complex matrix, raveled and read interleaved,
    the bins 2n and 2n + 1, n = (l - k) mod S being the index of its diagonal;
    read-only, since every :func:`screen_pattern` at (d, S) shares them, and
    kept by the rule of :func:`~schurmaps.channels._kept_bounded`. A size numpy
    refuses raises its ``ValueError`` before anything is allocated, and
    nothing is kept."""
    thetas = 2.0 * np.pi * np.arange(samples) / samples
    k = np.arange(d)
    n = 2 * ((k[None, :] - k[:, None]) % samples)
    return _read_only(thetas), _read_only(np.stack((n, n + 1), axis=-1).ravel())


def screen_pattern(rho: DensityMatrix, samples: int) -> ScreenPattern:
    """Interference pattern of a state on a phase-ray screen.

    The screen rays are |theta> = (1/sqrt d) sum_k e^{i k theta} |k>, sampled
    uniformly on [0, 2 pi); intensity(theta) = <theta|rho|theta>. A toy
    readout model, not a physical propagator: it shows full fringes for pure
    flat superpositions, a flat line for decohered states, and shifted
    fringes for clock-rotated subensembles. ``samples`` must be an integer >= 2.
    ``thetas`` is read-only. The last 16 (d, S) pairs whose angles and
    diagonal bins fit 256 KiB keep them, so every pattern of such a pair
    shares its ``thetas``; a larger screen builds its own and keeps nothing.

    The folded diagonal sums come from one ``np.bincount`` over the matrix's
    real and imaginary parts read interleaved, straight into the complex
    array the inverse FFT takes: the very sums, in the very order, of a
    bincount per part, without the three complex temporaries of joining
    them, so for finite entries the intensities are those sums' to the bit.
    """
    samples = _integer(samples, 2, "samples", BadDimension)
    d = rho.dim
    try:  # numpy refuses a size past its index range before allocating anything
        thetas, bins = _screen_geometry(d, samples)
    except ValueError as exc:
        raise BadDimension(f"samples = {samples} is too large: {exc}") from None
    # intensity(theta_s) = (1/d) sum_n t_n e^{2 pi i n s/S} with t_n = sum_{l-k=n} rho_kl;
    # the diagonal sums are taken mod S, so the sum is S/d times an inverse DFT. One
    # bincount over the interleaved parts sums the real and the imaginary parts of each
    # t_n in the order two bincounts would, into the layout of a complex array
    m = np.asarray(rho.matrix, dtype=complex).ravel().view(float)
    t = np.bincount(bins, m, 2 * samples).view(complex)
    intensities = (samples / d) * np.fft.ifft(t).real
    i_max, i_min = float(intensities.max()), float(intensities.min())
    visibility = (i_max - i_min) / (i_max + i_min) if i_max + i_min > 0 else 0.0
    return ScreenPattern(thetas=thetas, intensities=intensities, visibility=visibility)
