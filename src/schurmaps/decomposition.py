"""Random-unitary decompositions of Schur channels.

A Schur channel is random-unitary iff its correlation matrix is a convex
mixture of rank-one correlation matrices u u* with flat (all entries
unimodular) vectors u; each flat vector encodes the diagonal unitary
diag(u). Closed forms exist for d = 2 and for xi = I in any d. For d = 3
an exact descent through the faces of the convex set finds one: by Li-Tam,
a qutrit correlation matrix is extreme only at rank one, where it is a flat
u u*, so every face of higher rank can be split in two faces of lower rank
until only flat vectors are left. For d >= 4 a seeded numerical search takes
over: Levenberg-Marquardt on the residual, first with 2d terms and, where
that fails, with as many as the Caratheodory bound of the face of xi allows
(d^2 - d + 1 at full rank, fewer below it); a polish that misses is polished
once more without its vanishing terms. An extreme correlation matrix
of rank >= 2 (possible only for d >= 4) has no flat decomposition; the
Li-Tam count that sizes the search certifies it, as in
:func:`extremality_test`, and the search refuses it.
"""

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import CorrelationMatrix, _kept, _kept_bounded, _ReadOnlyArrays, _read_only
from .dilation import kolmogorov_vectors
from .errors import (
    BadDimension,
    DimensionMismatch,
    NoDecompositionFound,
    ShapeMismatch,
    VerificationFailure,
)
from .numerics import (
    NEGLIGIBLE,
    RANK_THRESHOLD,
    RESIDUAL_TOL,
    ToleranceProfile,
    _entropy_bits,
    _integer,
    _numbers,
    _spectrum,
)

__all__ = [
    "FlatDecomposition",
    "SearchConfig",
    "VerificationReport",
    "ExtremalityVerdict",
    "ExtremalityResult",
    "decompose_qubit",
    "decompose_identity_xi",
    "decompose",
    "flat_search",
    "verify_decomposition",
    "extremality_test",
    "reconstruct_xi",
]


@dataclass(frozen=True, eq=False)
class FlatDecomposition(_ReadOnlyArrays):
    """Compressed random-unitary decomposition.

    ``phase_vectors`` has one flat vector per row; row i encodes the diagonal
    unitary diag(phase_vectors[i]) applied with probability ``weights[i]``.
    The first entry of every phase vector is normalized to 1. Built with
    ``dim`` not an integer >= 1, it raises :class:`BadDimension`; with
    ``weights`` not 1-d real numbers or empty, or ``phase_vectors`` not
    complex numbers of shape (terms, ``dim``), :class:`ShapeMismatch`.

    It keeps ``dim`` as an int and holds read-only float and complex copies
    of the arrays, so no caller can change them,
    and keeps what depends on them alone: from its first verification on, the
    facts of :func:`verify_decomposition` that need no correlation matrix (its
    reconstruction of xi among them), and from its first correction on, the
    correction plan of :mod:`~schurmaps.correction`. A pickle round trip keeps
    every array it holds or keeps read-only.
    """

    dim: int
    weights: np.ndarray
    phase_vectors: np.ndarray  # shape (terms, dim), entries unimodular
    # class defaults, not fields: the facts and the plan are kept in the instance on first read
    _facts = _plan = None

    def __post_init__(self):
        dim = _integer(self.dim, 1, "dim", BadDimension)
        w = np.array(_numbers(self.weights, float, ShapeMismatch))
        u = np.array(_numbers(self.phase_vectors, complex, ShapeMismatch))
        if w.ndim != 1 or not w.size or u.shape != (w.size, dim):
            raise ShapeMismatch(f"weights of shape {w.shape} and phase vectors of shape "
                                f"{u.shape} do not make a decomposition of dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "weights", _read_only(w))
        object.__setattr__(self, "phase_vectors", _read_only(u))

    @property
    def terms(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the numerical flat-vector search: integers, both counts >= 1, seed >= 0.

    ``restarts`` counts the restarts of :func:`flat_search`, each of which
    polishes one random starting point per rung of its ladder (2d terms, then
    the face bound), and after a miss the terms of that polish which keep a
    weight of at least 1e-3; ``max_iters`` counts the Levenberg-Marquardt
    iterations (linear solves) allowed from each point, pruned ones included.
    """

    restarts: int = 32
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), least, name))


@dataclass(frozen=True)
class VerificationReport:
    residual: float
    flatness_deviation: float
    weight_sum_deviation: float
    shannon_entropy_bits: float
    orthogonal_family: bool
    accepted: bool


class ExtremalityVerdict(enum.Enum):
    EXTREMAL = "extremal"
    NOT_EXTREMAL = "not_extremal"


@dataclass(frozen=True)
class ExtremalityResult:
    verdict: ExtremalityVerdict
    rank: int


def reconstruct_xi(dec: FlatDecomposition) -> np.ndarray:
    """sum_i p_i u_i u_i*, the correlation matrix the decomposition encodes, as one
    matrix product."""
    u = dec.phase_vectors
    return (u.T * dec.weights) @ u.conj()


def decompose_qubit(xi: CorrelationMatrix) -> FlatDecomposition:
    """Optimal decomposition for d = 2 in closed form.

    With xi_01 = c e^{i phi}, the flat vectors (1, +-e^{-i phi}) carry weights
    (1 +- c)/2, the eigenvalues of xi over 2, so the weight entropy equals
    S(xi/2), the minimum. At c = 0 this is the d = 2 clock pair; at c = 1 the
    second weight vanishes (below ``NEGLIGIBLE``) and its term is dropped.
    """
    if xi.dim != 2:
        raise BadDimension(f"decompose_qubit needs d=2, got d={xi.dim}")
    c = xi.matrix[0, 1]
    weights = np.array([1.0 + abs(c), 1.0 - abs(c)]) / 2.0
    phase = np.exp(-1j * np.angle(c))
    u = np.array([[1.0, phase], [1.0, -phase]])
    keep = weights >= NEGLIGIBLE
    return FlatDecomposition(2, weights[keep], u[keep])


def decompose_identity_xi(d: int) -> FlatDecomposition:
    """Uniform mixture of the d clock unitaries Z_j = diag(e^{2 pi i k j / d}).

    Reconstructs xi = I exactly and attains the minimal weight entropy
    log2(d) for the instantaneous-decoherence channel. ``d`` must be an
    integer >= 2 that numpy can index; any other raises :class:`BadDimension`.
    """
    d = _integer(d, 2, "dimension d", BadDimension)
    if d * d > np.iinfo(np.intp).max // np.dtype(complex).itemsize:  # before allocating anything
        raise BadDimension(f"dimension d = {d} is too large: numpy cannot index {d} x {d} entries")
    k = np.arange(d)
    phases = np.exp(2j * np.pi * np.outer(k, k) / d)  # row j = Z_j diagonal
    return FlatDecomposition(d, np.full(d, 1.0 / d), phases)


class _Attempt(NamedTuple):
    """What one :func:`_polish` produced: its point x, in the layout of
    :func:`_unpack`, its squared Frobenius residual f and its term count m."""

    x: np.ndarray
    f: float
    m: int


def _by_weight(d, vectors, weights) -> FlatDecomposition:
    """The decomposition of these terms, sorted by weight, descending and stable."""
    order = np.argsort(-weights, kind="stable")
    return FlatDecomposition(d, weights[order], vectors[order])


def _unpack(x, m, d):
    """Flat vectors (rows) and weights from the search parameters.

    Parameters: free phase angles theta[i, 1:] (first entry of each flat
    vector pinned at angle 0) followed by m real weight scores fed through a
    softmax.
    """
    n_theta = m * (d - 1)
    u = np.ones((m, d), dtype=complex)
    np.exp(1j * x[:n_theta].reshape(m, d - 1), out=u[:, 1:])
    es = np.exp(x[n_theta:] - x[n_theta:].max())
    return u, es / es.sum()


_VANISHING = 1e-3  # a weight below this, where a polish stalls, is dropped by _cut


def _cut(attempt, d):
    """(x, n): the point of :func:`_unpack`'s layout that keeps the angles and
    scores of the n terms of ``attempt`` whose weight is at least
    ``_VANISHING``; None when that keeps every term or none."""
    x, _, m = attempt
    keep = _unpack(x, m, d)[1] >= _VANISHING
    n = int(np.count_nonzero(keep))
    if not 0 < n < m:
        return None
    angles = x[: m * (d - 1)].reshape(m, d - 1)[keep]
    return np.concatenate([angles.ravel(), x[m * (d - 1) :][keep]]), n


def _edge_bytes(d):
    """Bytes of the :func:`_edges` of dimension d: two index arrays of the
    R = d(d-1)/2 entries, the 2R x (d - 1) incidence and the 2R x 2R kernel."""
    n = d * (d - 1) // 2
    return 8 * (2 * n + 2 * n * (d - 1) + 4 * n * n)


@_kept_bounded(_edge_bytes)
def _edges(d):
    """(iu, inc, kernel), read-only: the search geometry of dimension d. iu
    indexes the R = d(d-1)/2 entries k < l above the diagonal, inc is the
    (2R, d - 1) incidence e_k - e_l of the real and then the imaginary part
    of each entry on the free angles 1..d-1, and kernel is the K = inc inc^T
    of :func:`_gauss_newton`. Every search at d shares them, kept by the rule
    of :func:`~schurmaps.channels._kept_bounded`, which keeps d <= 13."""
    k, l = np.triu_indices(d, 1)
    half = np.zeros((k.size, d))
    half[np.arange(k.size), k] = 1.0
    half[np.arange(k.size), l] = -1.0
    inc = _read_only(np.vstack([half[:, 1:], half[:, 1:]]))
    return (_read_only(k), _read_only(l)), inc, _read_only(inc @ inc.T)


@_kept_bounded(lambda key, m, d: 8 * m * d)
def _start(key, m, d):
    """The point a polish of m terms at d starts from, drawn with
    ``default_rng(key)``: m(d - 1) angles uniform on [0, 2 pi), then m
    standard normal scores; read-only, since every search that draws it
    shares it, kept by the rule of :func:`~schurmaps.channels._kept_bounded`."""
    rng = np.random.default_rng(key)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=m * (d - 1))
    return _read_only(np.concatenate([angles, rng.normal(0.0, 1.0, size=m)]))


def _residual(x, m, fit):
    """(p, w, r) at the parameters x of :func:`_unpack`: the weights p, the
    entries w_i = [Re, Im] of u_ik conj(u_il) above the diagonal for each
    flat vector u_i, and the residual r = target - p @ w of the same real
    layout, from the kept entry indices of :func:`_edges`. The diagonal of
    sum_i p_i u_i u_i* is 1 by construction, so r is all of the residual."""
    target, (k, l), inc, _ = fit
    u, p = _unpack(x, m, inc.shape[1] + 1)
    w = u[:, k] * u[:, l].conj()
    w = np.concatenate([w.real, w.imag], axis=1)
    return p, w, target - p @ w


def _gauss_newton(p, w, fit):
    """(J J^T, a, b) for the Jacobian J of the residual r of :func:`_residual`
    in the parameters of :func:`_unpack`, without forming J.

    The column of J for the angle theta_ij is a_i o inc[:, j], with
    a_i = p_i [Im w_i, -Re w_i] (w_i turns with its phases), and for the
    score of term i it is -b_i, b_i = p_i (w_i - p @ w) (the softmax
    derivative). So J J^T = (a^T a) o K + b^T b with K = inc inc^T, and
    J^T z is ((a o z) @ inc).ravel() for the angles, one (m, 2R) @ (2R, d - 1)
    product, followed by -b @ z for the scores, which :func:`_polish` takes.
    """
    n = w.shape[1] // 2
    weights = p[:, None]
    a = weights * np.concatenate([w[:, n:], -w[:, :n]], axis=1)
    b = weights * (w - p @ w)
    jjt = a.T @ a  # then in place: no (2R)^2 temporary, whether or not numpy elides one
    jjt *= fit[3]
    jjt += b.T @ b
    return jjt, a, b


def _fit(xi: CorrelationMatrix):
    """(target, iu, inc, kernel): what every :func:`_polish` of one search on
    xi shares. target, built once per search, holds the real and then the
    imaginary parts of the entries of xi above the diagonal; the rest is the
    geometry of :func:`_edges`, kept for the dimension of xi."""
    iu, inc, kernel = _edges(xi.dim)
    upper = xi.matrix[iu]
    return np.concatenate([upper.real, upper.imag]), iu, inc, kernel


def _polish(x0, m, fit, max_iters):
    """Drive the residual of :func:`_residual` to zero from x0 by
    Levenberg-Marquardt, with m terms on the :func:`_fit` of xi; returns
    the :class:`_Attempt` it ends at.

    Each iteration takes the minimum-norm damped Gauss-Newton step
    -J^T y, y = (J J^T + mu I)^-1 r, solved in the 2R-dimensional residual
    space (:func:`_gauss_newton`). The damping follows the residual:
    mu = lam * scale * sqrt(f), scale being the mean diagonal of J J^T, which
    converges quadratically near a zero residual even where J J^T is
    singular, as it is when there are more unknowns than equations (Fan and
    Yuan). lam starts at 1/sqrt(f), so mu starts at scale. A step is kept
    when it lowers f, and lam is then multiplied by
    max(1/3, 1 - (2 rho - 1)^3), rho being the ratio of the actual to the
    predicted decrease of f (Nielsen); otherwise it is dropped and lam is
    multiplied by nu, which starts at 2, doubles after each drop and is
    reset to 2 by a kept step. The linear model's residual after the step,
    r - J J^T y, is exactly mu y, so the predicted decrease f - 2 mu^2 |y|^2
    costs no product. Where it is no larger than the actual decrease
    (rho >= 1, or a predicted decrease lost to rounding), rho counts as 1,
    for the same factor 1/3. A step whose damped system rounding makes
    singular is dropped. Stops after ``max_iters`` iterations, at
    f <= 1e-26, when f has not halved over 50 iterations, or when mu exceeds
    1e15 times scale (no step lowers f any more). mu is added to the
    diagonal of J J^T in place, from a copy of that diagonal, so no identity
    and no second 2R x 2R matrix is formed. The step J^T y is taken in the
    loop from the factors a, b of :func:`_gauss_newton`, and the damping's
    scalars are Python floats, so an iteration costs its numpy passes alone.
    """
    inc = fit[2]
    x = x0
    p, w, r = _residual(x, m, fit)
    f = 2.0 * float(r @ r)
    lam, nu, jjt, checkpoint = None, 2.0, None, math.inf
    for it in range(max_iters):
        if it % 50 == 0:
            if not f <= checkpoint / 2.0:
                break
            checkpoint = f
        if f <= 1e-26:
            break
        if jjt is None:
            jjt, a, b = _gauss_newton(p, w, fit)
            diagonal = jjt.diagonal().copy()
            damped = jjt.reshape(-1)[:: r.size + 1]  # a writeable view of the diagonal
            scale = float(np.trace(jjt)) / r.size
            if lam is None:
                lam = 1.0 / math.sqrt(f)
        mu = lam * scale * math.sqrt(f)
        if not mu <= 1e15 * scale:
            break
        np.add(diagonal, mu, out=damped)
        try:
            y = np.linalg.solve(jjt, r)
        except np.linalg.LinAlgError:  # mu lost in the rounding of a singular J J^T
            f_new = math.inf  # dropped like a step that does not lower f
        else:
            x_new = x - np.concatenate([((a * y) @ inc).ravel(), -(b @ y)])
            p_new, w_new, r_new = _residual(x_new, m, fit)
            f_new = 2.0 * float(r_new @ r_new)
        if f_new < f:
            decrease, predicted = f - f_new, f - 2.0 * mu * mu * float(y @ y)
            gain = decrease / predicted if predicted > decrease else 1.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            x, p, w, r, f = x_new, p_new, w_new, r_new, f_new
            jjt, nu = None, 2.0
        else:
            lam *= nu
            nu *= 2.0
    return _Attempt(x, f, m)


def flat_search(xi: CorrelationMatrix, config: SearchConfig = SearchConfig()) -> FlatDecomposition:
    """Seeded numerical search for a flat decomposition of a correlation matrix.

    Drives the residual over phase angles and softmax weights to zero by
    Levenberg-Marquardt (:func:`_polish`), restarting from fresh random
    points until the Frobenius residual meets ``RESIDUAL_TOL``. Each restart
    k climbs a ladder of two term counts. It first polishes 2d terms, from a
    point drawn with ``default_rng([seed, k, 2d])``, when 2d is below the
    face bound m = r^2 - s + 1: the Caratheodory bound of the face of xi
    (:func:`_face`), which holds every flat u u* of a decomposition and has
    dimension r^2 - s. If that fails it polishes m terms, from a point drawn
    with ``default_rng([seed, k])``. At full rank m = d^2 - d + 1, so d >= 3
    tries 2d terms first; a rank-deficient xi may go straight to its face
    bound. A polish that misses is pruned once: the terms of weight below
    1e-3 are dropped, and the angles and scores of the rest are polished
    again under the same ``max_iters`` before the ladder goes on. On a
    rank-deficient face the surplus weights creep toward 0, which the
    softmax reaches only asymptotically, so such a polish stalls just above
    the tolerance; the pruned one can meet it, with fewer terms than the
    face bound. Deterministic under a fixed seed. Raises
    :class:`NoDecompositionFound` (carrying the best residual of every
    polish, pruned ones included) when every restart fails -- an expected
    outcome for some d >= 4 inputs -- and at once, before any restart, when
    the face is the point xi with rank >= 2 (Li-Tam, as in
    :func:`extremality_test`): such an xi is its own only decomposition into
    correlation matrices, so no mixture of flat rank-one matrices equals it.
    """
    d = xi.dim
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    r, s = _face(xi)
    if s >= r * r and r >= 2:
        raise NoDecompositionFound(np.inf, 0, extreme_rank=r)
    best = _Attempt(None, np.inf, 0)
    for attempt in _ladder(xi, r * r - s + 1, config):
        best = min(best, attempt, key=lambda a: a.f)  # a NaN f is never below best's
        if np.sqrt(attempt.f) <= RESIDUAL_TOL:
            return _by_weight(d, *_unpack(attempt.x, attempt.m, d))
    raise NoDecompositionFound(np.sqrt(best.f), config.restarts)


def _ladder(xi: CorrelationMatrix, face_bound, config: SearchConfig):
    """The polishes of :func:`flat_search`, as :class:`_Attempt` values, for
    as long as it asks for more: in each restart, for each rung, the polish
    from the rung's seeded start and then, since the search only asks again
    after a miss, one polish of the terms that :func:`_cut` keeps."""
    d = xi.dim
    fit = _fit(xi)
    rungs = [2 * d, face_bound] if 2 * d < face_bound else [face_bound]
    for restart in range(config.restarts):
        for m in rungs:
            key = (config.seed, restart) if m == face_bound else (config.seed, restart, m)
            attempt = _polish(_start(key, m, d), m, fit, config.max_iters)
            yield attempt
            cut = _cut(attempt, d)
            if cut is not None:
                yield _polish(*cut, fit, config.max_iters)


def _span(vecs: np.ndarray):
    """(s, vt) for the outer products e_k e_k* of the rows of ``vecs`` (d x r),
    stacked as the real rows [Re | Im] of a d x 2r^2 matrix: s, the real
    dimension of their span, counts its singular values above
    ``RANK_THRESHOLD`` times the largest, and the right singular vectors vt
    beyond the first s encode matrices X = X_re + i X_im orthogonal to every
    e_k e_k*.
    """
    d, r = vecs.shape
    outer = np.einsum("ka,kb->kab", vecs, vecs.conj()).reshape(d, r * r)
    _, sv, vt = np.linalg.svd(np.hstack([outer.real, outer.imag]))
    return int(np.sum(sv > RANK_THRESHOLD * sv[0])), vt


def _face(xi: CorrelationMatrix):
    """(r, s): the rank r of xi and the Li-Tam count s, the real dimension of
    the span of e_k e_k* over its Kolmogorov vectors e_k in C^r.

    The face of xi in the convex set of correlation matrices holds the Gram
    matrices <e_k|(I + H)|e_l> with I + H >= 0 and e_k* H e_k = 0 for every
    k, so it has dimension r^2 - s, and xi is extreme exactly when s = r^2.
    At full rank the d vectors are independent, so are their outer products,
    and s = d without an SVD. Counted once per ``xi`` and kept on it, beside
    its Kolmogorov factor, so :func:`extremality_test` and :func:`flat_search`
    on one ``xi`` share one count.
    """
    return _kept(xi, "_face", _face_count)


def _face_count(xi: CorrelationMatrix):
    vecs = kolmogorov_vectors(xi)
    d, r = vecs.shape
    return r, d if r == d else _span(vecs)[0]


def _null_direction(vecs: np.ndarray):
    """A unit Hermitian r x r matrix H with e_k* H e_k = 0 for every row e_k of
    ``vecs`` (d x r), or None when the outer products e_k e_k* span all r^2
    Hermitian matrices (the Li-Tam count of :func:`_span`).

    Since each e_k e_k* is Hermitian, so is the Hermitian part of every
    matrix orthogonal to all of them; the largest of those parts over the
    null vectors of :func:`_span`, normalized, is H.
    """
    r = vecs.shape[1]
    s, vt = _span(vecs)
    if s >= r * r:
        return None
    x = (vt[s:, : r * r] + 1j * vt[s:, r * r :]).reshape(-1, r, r)
    herm = x + x.conj().transpose(0, 2, 1)
    h = herm[np.argmax(np.linalg.norm(herm, axis=(1, 2)))]
    return h / np.linalg.norm(h)


def _descend(v: np.ndarray, weight: float):
    """Yield the (weight, flat vector) terms of weight * V V*.

    V (d x r) has orthogonal columns and V V* has unit diagonal. At r = 1 the
    column is flat; it is returned with phases relative to its first entry.
    Otherwise a unit Hermitian H with V_k H V_k* = 0 for every row k moves
    V V* inside its face: V (I + t H) V* keeps the unit diagonal, and stays
    positive for t between t- = -1/lambda_max(H) < 0 and t+ = -1/lambda_min(H)
    > 0, where it loses rank. V V* is the mixture of the two ends with weights
    w = -t-/(t+ - t-) and 1 - w, and each end is factored as V sqrt(I + t H)
    restricted to its range (singular values squared above ``NEGLIGIBLE``).
    """
    if v.shape[1] == 1:
        angle = np.angle(v[:, 0])
        yield weight, np.exp(1j * (angle - angle[0]))
        return
    mu, q = np.linalg.eigh(_null_direction(v.conj()))
    t = -1.0 / mu[[0, -1]]
    w = -t[1] / (t[0] - t[1])
    for tk, wk in zip(t, (w, 1.0 - w)):
        end = (v @ q) * np.sqrt(np.maximum(1.0 + tk * mu, 0.0))
        u, sv, _ = np.linalg.svd(end, full_matrices=False)
        keep = sv * sv > NEGLIGIBLE
        yield from _descend(u[:, keep] * sv[keep], weight * wk)


def _face_descent(xi: CorrelationMatrix) -> FlatDecomposition:
    """Exact flat decomposition of a qutrit xi by descent through faces.

    Starts from the spectral factor V of :func:`kolmogorov_vectors` (up to
    conjugation), so xi = V V*, and splits with :func:`_descend`. V keeps
    every eigenvalue above ``NEGLIGIBLE``, not only those above the rank
    threshold: dropping an eigenvalue lam would lower H(p) below its bound
    S(xi/3) by up to about lam log2(1/lam). For d = 3 a face of rank r >= 2
    is never extreme (Li-Tam: that needs r^2 <= d), so the direction H always
    exists and each split lowers the rank: rank 3 ends in at most 4 terms,
    rank 2 in 2. Terms are sorted by weight, descending and stable.
    """
    vals, vecs = _spectrum(xi.matrix)
    keep = vals > NEGLIGIBLE
    v = vecs[:, keep] * np.sqrt(vals[keep])
    weights, vectors = map(np.array, zip(*_descend(v, 1.0)))
    return _by_weight(xi.dim, vectors, weights)


def decompose(xi: CorrelationMatrix, seed=0) -> FlatDecomposition:
    """A flat decomposition of xi, by the first route that applies.

    The one term [1] for d = 1, the clock family for xi = I (within ``NEGLIGIBLE``),
    the closed form for d = 2, the exact face descent for d = 3, else
    :func:`flat_search` seeded with ``seed``. ``seed`` must be a nonnegative integer.
    """
    seed = _integer(seed, 0, "seed")
    if xi.dim == 1:  # xi = [[1]]: the one-term family, before the clock's d >= 2
        return FlatDecomposition(1, np.ones(1), np.ones((1, 1), dtype=complex))
    if np.max(np.abs(xi.matrix - np.eye(xi.dim))) < NEGLIGIBLE:
        return decompose_identity_xi(xi.dim)
    if xi.dim == 2:
        return decompose_qubit(xi)
    if xi.dim == 3:
        return _face_descent(xi)
    return flat_search(xi, SearchConfig(seed=seed))


def verify_decomposition(xi: CorrelationMatrix, dec: FlatDecomposition) -> VerificationReport:
    """Check a decomposition against a correlation matrix.

    Reports the reconstruction residual, flatness and weight-sum deviations,
    the weight Shannon entropy in bits, and whether the trace-form Gram
    matrix O_ij = Tr[U_i U_j*]/d is the identity within ``RESIDUAL_TOL``,
    which characterizes mutually orthogonal unitary families (the equality
    case of the information lower bound); more terms than ``dim`` are never
    orthogonal, and O is not formed for them. Flatness is max | |u_ik|^2 - 1 |.
    Accepted: residual within ``RESIDUAL_TOL``, weights nonnegative, and the
    weight sum, the flatness and the diagonal of the reconstruction within
    ``tol.tr`` of 1, 0 and 1, ``tol`` being the profile ``xi`` carries.
    The last two keep each heralded diag(u^(i)) unitary and the channel trace
    preserving, to within ``tol.tr``. NaN fails.

    Everything but the residual depends on ``dec`` alone, which owns its
    arrays, so ``dec`` keeps it from its first verification on, its
    reconstruction of xi included. Each call then takes only the Frobenius
    residual of ``xi`` against that reconstruction and the verdict under the
    profile of ``xi``, and returns a fresh report.
    """
    if dec.dim != xi.dim:
        raise DimensionMismatch(f"decomposition dim {dec.dim} != xi dim {xi.dim}")
    return _report(dec, xi._tol, xi.matrix)


class _Facts(NamedTuple):
    """What a verification establishes of a decomposition alone."""

    recon: np.ndarray  # reconstruct_xi of the decomposition, read-only
    flatness: float
    diagonal_dev: float
    weight_dev: float
    entropy: float
    orthogonal: bool
    nonnegative: bool  # every weight >= 0, which NaN fails


def _facts_of(dec: FlatDecomposition) -> _Facts:
    """The verification facts of ``dec``, which :func:`_report` establishes on
    its first verification and keeps on it."""
    with np.errstate(over="ignore", invalid="ignore"):  # huge weights: inf or NaN, which fail
        recon = reconstruct_xi(dec)
        # more terms than dim: O has rank <= dim < terms, so O - I has an eigenvalue
        # -1 and an entry of size >= 1/terms, far above RESIDUAL_TOL; skip the Gram
        u = dec.phase_vectors
        return _Facts(
            recon=_read_only(recon),
            flatness=float(abs(abs(u) ** 2 - 1.0).max()),
            diagonal_dev=float(abs(recon.diagonal().real - 1.0).max()),
            weight_dev=float(abs(dec.weights.sum() - 1.0)),
            entropy=_entropy_bits(dec.weights),
            orthogonal=dec.terms <= dec.dim and bool(
                np.max(np.abs(u @ u.conj().T / dec.dim - np.eye(dec.terms))) <= RESIDUAL_TOL
            ),
            nonnegative=bool(np.all(dec.weights >= 0)),
        )


def _report(dec: FlatDecomposition, tol: ToleranceProfile, matrix=None) -> VerificationReport:
    """The :func:`verify_decomposition` report of ``dec`` under ``tol`` against
    ``matrix`` or, when it is None, against the decomposition's own
    reconstruction (residual 0 unless that is not finite), from the facts
    ``dec`` keeps; the report itself is kept nowhere."""
    facts = _kept(dec, "_facts", _facts_of)
    recon = facts.recon
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm((recon if matrix is None else matrix) - recon))
    traces_ok = (
        facts.weight_dev <= tol.tr and facts.flatness <= tol.tr and facts.diagonal_dev <= tol.tr
    )
    return VerificationReport(
        residual=residual,
        flatness_deviation=facts.flatness,
        weight_sum_deviation=facts.weight_dev,
        shannon_entropy_bits=facts.entropy,
        orthogonal_family=facts.orthogonal,
        accepted=residual <= RESIDUAL_TOL and traces_ok and facts.nonnegative,
    )


def _require_accepted(report: VerificationReport) -> VerificationReport:
    """``report`` if it accepts its decomposition, else :class:`VerificationFailure`."""
    if not report.accepted:
        raise VerificationFailure(f"decomposition rejected: {report}")
    return report


def extremality_test(xi: CorrelationMatrix) -> ExtremalityResult:
    """Extreme-point test for the convex set of correlation matrices (Li-Tam).

    xi is the Gram matrix of its Kolmogorov vectors e_k in C^r, r = rank(xi).
    It is extreme exactly when the d outer products e_k e_k* span all r x r
    Hermitian matrices, i.e. their real span has dimension r^2, which
    :func:`_face` counts. That needs r^2 <= d, so full rank with d >= 2 is
    settled without an SVD. For d <= 3 this is the rank-one rule.
    """
    r, s = _face(xi)
    verdict = ExtremalityVerdict.EXTREMAL if s >= r * r else ExtremalityVerdict.NOT_EXTREMAL
    return ExtremalityResult(verdict=verdict, rank=r)
