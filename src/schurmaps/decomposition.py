"""Random-unitary decompositions of Schur channels.

A Schur channel is random-unitary iff its correlation matrix is a convex
mixture of rank-one correlation matrices u u* with flat (all entries
unimodular) vectors u; each flat vector encodes the diagonal unitary
diag(u). Closed forms exist for d = 2 and for xi = I in any d. For d = 3
an exact descent through the faces of the convex set finds one: by Li-Tam,
a qutrit correlation matrix is extreme only at rank one, where it is a flat
u u*, so every face of higher rank can be split in two faces of lower rank
until only flat vectors are left. For d >= 4 a seeded numerical search takes
over. An extreme correlation matrix of rank >= 2 (possible only for d >= 4)
has no flat decomposition; the Li-Tam test of :func:`extremality_test`
certifies it, and the search refuses it.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .channels import CorrelationMatrix
from .dilation import kolmogorov_vectors
from .errors import (
    BadDimension,
    DimensionMismatch,
    NoDecompositionFound,
    ShapeMismatch,
    VerificationFailure,
)
from .numerics import (
    DEFAULT_TOL,
    NEGLIGIBLE,
    RANK_THRESHOLD,
    RESIDUAL_TOL,
    ToleranceProfile,
    _entropy_bits,
    _integer,
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


@dataclass(frozen=True)
class FlatDecomposition:
    """Compressed random-unitary decomposition.

    ``phase_vectors`` has one flat vector per row; row i encodes the diagonal
    unitary diag(phase_vectors[i]) applied with probability ``weights[i]``.
    The first entry of every phase vector is normalized to 1. Built with
    ``weights`` not 1-d, or ``phase_vectors`` not of shape (terms, ``dim``),
    it raises :class:`ShapeMismatch`.
    """

    dim: int
    weights: np.ndarray
    phase_vectors: np.ndarray  # shape (terms, dim), entries unimodular

    def __post_init__(self):
        w, u = np.shape(self.weights), np.shape(self.phase_vectors)
        if len(w) != 1 or u != (w[0], self.dim):
            raise ShapeMismatch(
                f"weights of shape {w} and phase vectors of shape {u} "
                f"do not make a decomposition of dim {self.dim}"
            )

    @property
    def terms(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the numerical flat-vector search: integers, both counts >= 1, seed >= 0."""

    restarts: int = 32
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            _integer(getattr(self, name), least, name)


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


def _mix(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_i p_i u_i u_i* for weights p and vectors u (rows), as one matrix product."""
    return (u.T * p) @ u.conj()


def reconstruct_xi(dec: FlatDecomposition) -> np.ndarray:
    """sum_i p_i u_i u_i*, the correlation matrix the decomposition encodes."""
    return _mix(dec.weights, dec.phase_vectors)


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
    return FlatDecomposition(dim=2, weights=weights[keep], phase_vectors=u[keep])


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
    return FlatDecomposition(dim=d, weights=np.full(d, 1.0 / d), phase_vectors=phases)


_LBFGS_MEMORY = 10  # steps the search's L-BFGS remembers, scipy's default


def _unpack(x, m, d):
    """Flat vectors (rows) and weights from the search parameters.

    Parameters: free phase angles theta[i, 1:] (first entry of each flat
    vector pinned at angle 0) followed by m real weight scores fed through a
    softmax.
    """
    n_theta = m * (d - 1)
    u = np.ones((m, d), dtype=complex)
    u[:, 1:] = np.exp(1j * x[:n_theta].reshape(m, d - 1))
    es = np.exp(x[n_theta:] - np.max(x[n_theta:]))
    return u, es / es.sum()


def _objective(x: np.ndarray, xi: np.ndarray, m: int, d: int):
    """Squared Frobenius residual and its analytic gradient in the parameters
    of :func:`_unpack`."""
    u, p = _unpack(x, m, d)
    r = xi - _mix(p, u)
    h = u.conj() * (u @ r.T)  # h[i, k] = conj(u_ik) (r u_i)_k since r is Hermitian
    grad_theta = -4.0 * p[:, None] * h.imag[:, 1:]
    grad_p = -2.0 * h.real.sum(axis=1)
    grad_s = p * (grad_p - p @ grad_p)
    return float(np.vdot(r, r).real), np.concatenate([grad_theta.ravel(), grad_s])


def _polish(x0, xi, m, d, max_iters):
    """Minimize :func:`_objective` from x0 by L-BFGS; returns (x, f).

    Directions come from the two-loop recursion (Nocedal 1980) over the last
    ``_LBFGS_MEMORY`` steps; with none stored, from the Polyak step
    -g f / |g|^2 (the zero of f's linear model), which sizes the first step,
    and the first after pruning, to the distance from a zero residual. The
    step length is bisected, or doubled while the slope stays steep, until
    it meets the strong Wolfe conditions with c1 = 1e-4 and c2 = 0.5; the
    line search, more exact than at the usual c2 = 0.9, lets more restarts
    converge on rank-deficient xi. Stops after ``max_iters`` iterations, at
    max |g| <= 1e-14, after a step that lowers f by at most
    1e-18 max(|f|, |f_new|, 1), or when 20 trial steps fail.
    """
    x = x0
    f, g = _objective(x, xi, m, d)
    steps = []  # (s, y, 1 / (s . y)) of the last _LBFGS_MEMORY steps, oldest first
    for _ in range(max_iters):
        if np.max(np.abs(g)) <= 1e-14:
            break
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(steps):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if steps:
            _, y, rho = steps[-1]
            q /= rho * (y @ y)  # H0 = (s . y) / (y . y) I of the newest step
        else:
            q *= f / (g @ g)
        for (s, y, rho), a in zip(steps, reversed(alphas)):
            q += (a - rho * (y @ q)) * s
        slope = -(g @ q)
        if not slope < 0 and steps:  # only rounding turns the direction uphill
            steps.clear()
            continue
        t, lo, hi = 1.0, 0.0, np.inf
        for _ in range(20):
            x_new = x - t * q
            f_new, g_new = _objective(x_new, xi, m, d)
            slope_new = -(g_new @ q)
            if not f_new <= f + 1e-4 * t * slope or slope_new > -0.5 * slope:
                hi = t
            elif slope_new < 0.5 * slope:
                lo = t
            else:
                break
            t = 2.0 * t if hi == np.inf else (lo + hi) / 2.0
        else:
            break
        small = f - f_new <= 1e-18 * max(abs(f), abs(f_new), 1.0)
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:
            steps = steps[1 - _LBFGS_MEMORY :] + [(s, y, 1.0 / sy)]
        x, f, g = x_new, f_new, g_new
        if small:
            break
    return x, f


def flat_search(xi: CorrelationMatrix, config: SearchConfig = SearchConfig()) -> FlatDecomposition:
    """Seeded numerical search for a flat decomposition of a correlation matrix.

    Minimizes the squared Frobenius residual over phase angles and softmax
    weights by L-BFGS (:func:`_polish`, with analytic gradients), restarting
    from fresh random points until the residual meets ``RESIDUAL_TOL``, with
    d^2 - d + 1 terms (the Caratheodory bound). Terms with weight below 1e-6
    are pruned and the survivors re-polished. Deterministic under a fixed
    seed. Raises :class:`NoDecompositionFound` (carrying the best residual)
    when every restart fails -- an expected outcome for some d >= 4 inputs --
    and at once, before any restart, when :func:`extremality_test` certifies
    xi extreme with rank >= 2: such an xi is its own only decomposition into
    correlation matrices, so no mixture of flat rank-one matrices equals it.
    """
    d = xi.dim
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    ext = extremality_test(xi)
    if ext.verdict is ExtremalityVerdict.EXTREMAL and ext.rank >= 2:
        raise NoDecompositionFound(np.inf, 0, extreme_rank=ext.rank)
    m = d * d - d + 1
    target = xi.matrix
    best_residual = np.inf
    for restart in range(config.restarts):
        rng = np.random.default_rng([config.seed, restart])
        x0 = np.concatenate(
            [
                rng.uniform(0.0, 2.0 * np.pi, size=m * (d - 1)),
                rng.normal(0.0, 1.0, size=m),
            ]
        )
        x, f = _polish(x0, target, m, d, config.max_iters)
        u, p = _unpack(x, m, d)
        keep = p >= 1e-6
        if not np.all(keep) and np.any(keep):
            mk = int(keep.sum())
            n_theta_kept = np.angle(u[keep])  # first column is 0 by construction
            s_kept = np.log(p[keep])
            x0p = np.concatenate([n_theta_kept[:, 1:].ravel(), s_kept])
            x, f = _polish(x0p, target, mk, d, config.max_iters)
            u, p = _unpack(x, mk, d)
        residual = np.sqrt(max(f, 0.0))
        if residual < best_residual:
            best_residual = residual
        if residual <= RESIDUAL_TOL:
            order = np.argsort(-p, kind="stable")
            return FlatDecomposition(dim=d, weights=p[order], phase_vectors=u[order])
    raise NoDecompositionFound(best_residual, config.restarts)


def _null_direction(vecs: np.ndarray):
    """A unit Hermitian r x r matrix H with e_k* H e_k = 0 for every row e_k of
    ``vecs`` (d x r), or None when the outer products e_k e_k* span all r^2
    Hermitian matrices (the Li-Tam count).

    One SVD of the outer products' stacked real and imaginary parts gives
    both: the singular values above ``RANK_THRESHOLD`` times the largest
    count the dimension of the span, and the right singular vectors beyond
    them encode matrices X = X_re + i X_im orthogonal to every e_k e_k*.
    Since each e_k e_k* is Hermitian, so is the Hermitian part of X; the
    largest of those parts, normalized, is H.
    """
    d, r = vecs.shape
    outer = np.einsum("ka,kb->kab", vecs, vecs.conj()).reshape(d, r * r)
    _, sv, vt = np.linalg.svd(np.hstack([outer.real, outer.imag]))
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0]))
    if rank >= r * r:
        return None
    x = (vt[rank:, : r * r] + 1j * vt[rank:, r * r :]).reshape(-1, r, r)
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
    res = _spectrum(xi.matrix)
    keep = res.eigenvalues > NEGLIGIBLE
    v = res.eigenvectors[:, keep] * np.sqrt(res.eigenvalues[keep])
    weights, vectors = map(np.array, zip(*_descend(v, 1.0)))
    order = np.argsort(-weights, kind="stable")
    return FlatDecomposition(dim=xi.dim, weights=weights[order], phase_vectors=vectors[order])


def decompose(xi: CorrelationMatrix, seed=0) -> FlatDecomposition:
    """A flat decomposition of xi, by the first route that applies.

    The clock family for xi = I (within ``NEGLIGIBLE``), the closed form for
    d = 2, the exact face descent for d = 3, else :func:`flat_search` seeded
    with ``seed``. ``seed`` must be a nonnegative integer on every route.
    """
    seed = _integer(seed, 0, "seed")
    if np.max(np.abs(xi.matrix - np.eye(xi.dim))) < NEGLIGIBLE:
        return decompose_identity_xi(xi.dim)
    if xi.dim == 2:
        return decompose_qubit(xi)
    if xi.dim == 3:
        return _face_descent(xi)
    return flat_search(xi, SearchConfig(seed=seed))


def verify_decomposition(
    xi: CorrelationMatrix, dec: FlatDecomposition, tol: ToleranceProfile = DEFAULT_TOL
) -> VerificationReport:
    """Check a decomposition against a correlation matrix.

    Reports the reconstruction residual, flatness and weight-sum deviations,
    the weight Shannon entropy in bits, and whether the trace-form Gram
    matrix O_ij = Tr[U_i U_j*]/d is the identity within ``RESIDUAL_TOL``,
    which characterizes mutually orthogonal unitary families (the equality
    case of the information lower bound). Flatness is max | |u_ik|^2 - 1 |.
    Accepted: residual within ``RESIDUAL_TOL``, weights nonnegative, and the
    weight sum, the flatness and the diagonal of the reconstruction within
    ``tol.tr`` of 1, 0 and 1.
    The last two keep each heralded diag(u^(i)) unitary and the channel trace
    preserving, to within ``tol.tr``. NaN fails.
    """
    if dec.dim != xi.dim:
        raise DimensionMismatch(f"decomposition dim {dec.dim} != xi dim {xi.dim}")
    with np.errstate(over="ignore", invalid="ignore"):  # huge weights: inf or NaN fails below
        recon = reconstruct_xi(dec)
        residual = float(np.linalg.norm(xi.matrix - recon))
        flatness = float(abs(abs(dec.phase_vectors) ** 2 - 1.0).max())
        diagonal_dev = float(abs(recon.diagonal().real - 1.0).max())
        weight_dev = float(abs(dec.weights.sum() - 1.0))
        entropy = _entropy_bits(dec.weights)
        ortho = dec.phase_vectors @ dec.phase_vectors.conj().T / dec.dim
    orthogonal = bool(np.max(np.abs(ortho - np.eye(dec.terms))) <= RESIDUAL_TOL)
    traces_ok = weight_dev <= tol.tr and flatness <= tol.tr and diagonal_dev <= tol.tr
    accepted = residual <= RESIDUAL_TOL and traces_ok and bool(np.all(dec.weights >= 0))
    return VerificationReport(
        residual=residual,
        flatness_deviation=flatness,
        weight_sum_deviation=weight_dev,
        shannon_entropy_bits=entropy,
        orthogonal_family=orthogonal,
        accepted=accepted,
    )


def _require_accepted(xi, dec, tol) -> VerificationReport:
    """The report of an accepted decomposition, or :class:`VerificationFailure`."""
    report = verify_decomposition(xi, dec, tol)
    if not report.accepted:
        raise VerificationFailure(f"decomposition rejected: {report}")
    return report


def extremality_test(xi: CorrelationMatrix) -> ExtremalityResult:
    """Extreme-point test for the convex set of correlation matrices (Li-Tam).

    xi is the Gram matrix of its Kolmogorov vectors e_k in C^r, r = rank(xi).
    It is extreme exactly when the d outer products e_k e_k* span all r x r
    Hermitian matrices, i.e. their real span has dimension r^2. That needs
    r^2 <= d, so a larger rank is settled without an SVD; otherwise
    :func:`_null_direction` counts the dimension of the span. For d <= 3
    this is the rank-one rule.
    """
    vecs = kolmogorov_vectors(xi)
    d, r = vecs.shape
    extreme = r * r <= d and _null_direction(vecs) is None
    verdict = ExtremalityVerdict.EXTREMAL if extreme else ExtremalityVerdict.NOT_EXTREMAL
    return ExtremalityResult(verdict=verdict, rank=r)
