import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmaps import (
    DEFAULT_TOL,
    CorrelationMatrix,
    DensityMatrix,
    ExtremalityVerdict,
    FlatDecomposition,
    NoDecompositionFound,
    SchurChannel,
    BadDimension,
    SearchConfig,
    ToleranceProfile,
    VerificationFailure,
    apply_schrodinger,
    bounds_report,
    decompose,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    extremality_test,
    flat_search,
    reconstruct_xi,
    run_correction,
    validate_correlation,
    verify_decomposition,
    von_neumann_entropy,
)
from schurmaps import channels, decomposition, serialize
from schurmaps.infometrics import shannon_entropy
from conftest import random_correlation, random_density, random_flat_decomposition


def apply_mixture(dec: FlatDecomposition, rho: np.ndarray) -> np.ndarray:
    """Independent oracle: explicitly conjugate by each diagonal unitary."""
    out = np.zeros_like(rho, dtype=complex)
    for p, u in zip(dec.weights, dec.phase_vectors):
        w = np.diag(u)
        out += p * (w.conj().T @ rho @ w)
    return out


def gram(vectors) -> tuple[np.ndarray, np.ndarray]:
    """(xi, f): the rows of ``vectors`` scaled to unit length as f, and xi_kl = <f_k|f_l>."""
    f = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return f.conj() @ f.T, f


def random_vectors(rng, d, r) -> np.ndarray:
    return rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))


def witness(f):
    """A nonzero Hermitian H with f_k* H f_k = 0 for every row f_k, or None.

    Independent of the library: solves the d real equations for the r^2 real
    coordinates of H in the basis E_aa, E_ab + E_ba, i(E_ab - E_ba).
    """
    r = f.shape[1]
    basis = []
    for a in range(r):
        for b in range(a, r):
            e = np.zeros((r, r), dtype=complex)
            e[a, b] = e[b, a] = 1.0
            basis.append(e)
            if a != b:
                e = np.zeros((r, r), dtype=complex)
                e[a, b], e[b, a] = 1j, -1j
                basis.append(e)
    m = np.array([[np.real(fk.conj() @ h @ fk) for h in basis] for fk in f])
    _, sv, vt = np.linalg.svd(m)
    sv = np.concatenate([sv, np.zeros(r * r - sv.size)])
    null = vt[sv <= 1e-9 * sv[0]]
    return None if not len(null) else np.tensordot(null[0], basis, axes=1)


class TestDecomposeQubit:
    def test_identity_xi(self):
        dec = decompose_qubit(validate_correlation(np.eye(2)))
        assert np.allclose(dec.weights, [0.5, 0.5])
        assert np.allclose(np.diag(dec.phase_vectors[0]), np.eye(2))
        assert np.allclose(np.diag(dec.phase_vectors[1]), np.diag([1, -1]))

    def test_real_offdiagonal(self):
        xi = validate_correlation([[1, 0.6], [0.6, 1]])
        dec = decompose_qubit(xi)
        assert np.allclose(dec.weights, [0.8, 0.2])
        assert np.allclose(dec.phase_vectors, [[1, 1], [1, -1]])
        h = shannon_entropy(dec.weights)
        assert abs(h - 0.7219280948873623) < 1e-12
        assert abs(h - von_neumann_entropy(xi.matrix / 2)) < 1e-12

    def test_all_ones_single_term(self):
        dec = decompose_qubit(validate_correlation(np.ones((2, 2))))
        assert dec.terms == 1
        assert np.allclose(dec.weights, [1.0])
        assert np.allclose(dec.phase_vectors, [[1, 1]])

    def test_wrong_dimension(self):
        with pytest.raises(BadDimension):
            decompose_qubit(validate_correlation(np.eye(3)))

    @pytest.mark.parametrize("c", [1e-8, 1e-9])
    def test_tiny_coherence_any_phase(self, rng, c):
        rho = DensityMatrix.pure([1, 1j])
        for phi in rng.uniform(0, 2 * np.pi, size=50):
            z = c * np.exp(1j * phi)
            ch = SchurChannel(validate_correlation([[1, z], [np.conj(z), 1]]))
            dec = decompose_qubit(ch.xi)
            assert verify_decomposition(ch.xi, dec).accepted
            run_correction(ch, dec, rho)

    def test_optimality_random(self, rng):
        # weight entropy meets the qubit equality H(p) = S(xi/2)
        for _ in range(100):
            xi = random_correlation(rng, 2)
            dec = decompose_qubit(xi)
            assert verify_decomposition(xi, dec).accepted
            gap = shannon_entropy(dec.weights) - von_neumann_entropy(xi.matrix / 2)
            assert abs(gap) < 1e-9


class TestDecomposeIdentityXi:
    def test_d2_is_identity_and_sigma_z(self):
        dec = decompose_identity_xi(2)
        assert np.allclose(dec.weights, [0.5, 0.5])
        assert np.allclose(np.diag(dec.phase_vectors[1]), np.diag([1, -1]))

    def test_d3_roots_of_unity(self):
        dec = decompose_identity_xi(3)
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(sorted(dec.phase_vectors[1], key=np.angle), sorted([1, w, w**2], key=np.angle))
        assert abs(shannon_entropy(dec.weights) - np.log2(3)) < 1e-12

    def test_reconstructs_identity(self):
        for d in range(2, 9):
            dec = decompose_identity_xi(d)
            assert np.max(np.abs(reconstruct_xi(dec) - np.eye(d))) < 1e-12


class TestFlatSearch:
    def test_qubit_matches_closed_form_entropy(self, rng):
        for seed in range(10):
            xi = random_correlation(rng, 2)
            dec = flat_search(xi, SearchConfig(seed=seed))
            assert verify_decomposition(xi, dec).residual <= 1e-8
            h_search = shannon_entropy(dec.weights)
            h_opt = von_neumann_entropy(xi.matrix / 2)
            # any decomposition is bounded below by the optimum
            assert h_search >= h_opt - 1e-6

    def test_qutrit_success_rate(self, rng):
        for seed in range(100):
            xi = random_correlation(rng, 3)
            dec = flat_search(xi, SearchConfig(seed=seed))
            assert verify_decomposition(xi, dec).accepted

    def test_identity_xi_any_d(self):
        for d in (2, 3, 4):
            xi = validate_correlation(np.eye(d))
            dec = flat_search(xi, SearchConfig(seed=0))
            assert verify_decomposition(xi, dec).accepted

    def test_determinism(self, rng):
        xi = random_correlation(rng, 3)
        a = flat_search(xi, SearchConfig(seed=11))
        b = flat_search(xi, SearchConfig(seed=11))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.phase_vectors, b.phase_vectors)

    def test_term_budget(self, rng):
        xi = random_correlation(rng, 3)
        dec = flat_search(xi, SearchConfig(seed=0))
        assert dec.terms <= 3 * 3 - 3 + 1

    def test_exhausted_restarts_reports_residual(self, rng):
        xi = random_correlation(rng, 3)
        with pytest.raises(NoDecompositionFound) as exc:
            flat_search(xi, SearchConfig(restarts=1, max_iters=3, seed=0))
        assert exc.value.best_residual > 0
        assert exc.value.restarts == 1

    def test_rank_two_input_is_pruned_to_two_terms(self):
        # the search is sized by the face of xi: two flat vectors at d = 4 span a
        # rank-2 xi whose four Kolmogorov outer products span s = 3 dimensions, so
        # it polishes r^2 - s + 1 = 2 terms, not d^2 - d + 1 = 13
        u = np.exp(1j * np.random.default_rng(2).uniform(0, 2 * np.pi, size=(2, 4)))
        xi = validate_correlation((u.T * np.array([0.6, 0.4])) @ u.conj())
        dec = flat_search(xi, SearchConfig(restarts=4, max_iters=1000))
        assert verify_decomposition(xi, dec).accepted
        assert dec.terms == 2

    @pytest.mark.parametrize("d", [4, 5])
    def test_certified_extreme_input_is_refused_without_search(self, rng, monkeypatch, d):
        def no_polish(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(decomposition, "_polish", no_polish)
        xi = validate_correlation(gram(random_vectors(rng, d, 2))[0])
        assert extremality_test(xi).verdict == ExtremalityVerdict.EXTREMAL
        with pytest.raises(NoDecompositionFound, match="extreme with rank 2") as exc:
            flat_search(xi)
        assert exc.value.restarts == 0
        assert exc.value.extreme_rank == 2

    def test_gauss_newton_matches_finite_differences(self, rng):
        # oracle: the central-difference Jacobian J of the real residual
        # [Re r, Im r], r the entries k < l of xi - sum_i p_i u_i u_i*; J^T z is
        # read off the factors a, b as _polish reads it
        def residual(x, xi, m, d):
            u, p = decomposition._unpack(x, m, d)
            r = (xi - (u.T * p) @ u.conj())[np.triu_indices(d, 1)]
            return np.concatenate([r.real, r.imag])

        rank_two = validate_correlation(reconstruct_xi(random_flat_decomposition(rng, 4, 2)))
        for xi in (random_correlation(rng, 3), random_correlation(rng, 4), rank_two):
            d = xi.dim
            r, s = decomposition._face(xi)
            m = r * r - s + 1
            x = rng.normal(size=m * d)
            fit = decomposition._fit(xi)
            p, w, res = decomposition._residual(x, m, fit)
            jjt, a, b = decomposition._gauss_newton(p, w, fit)
            eps = 1e-6
            jac = np.stack(
                [
                    (residual(x + eps * e, xi.matrix, m, d) - residual(x - eps * e, xi.matrix, m, d))
                    / (2 * eps)
                    for e in np.eye(x.size)
                ],
                axis=1,
            )
            z = rng.normal(size=jac.shape[0])
            assert np.max(np.abs(res - residual(x, xi.matrix, m, d))) < 1e-14
            assert np.max(np.abs(jjt - jac @ jac.T)) < 1e-8
            pull = np.concatenate([((a * z) @ fit[2]).ravel(), -(b @ z)])
            assert np.max(np.abs(pull - jac.T @ z)) < 1e-8

    def test_rank_deficient_mixture_decomposes_within_its_face_bound(self):
        # rank 3 at d = 4: four Kolmogorov outer products in C^3 span s = 4, so the
        # face bound is r^2 - s + 1 = 6 terms
        theta = np.array([(0, 0.4, 1.9, -2.2), (0, 2.5, -1.2, 0.8), (0, -0.7, 0.3, 2.9)])
        u = np.exp(1j * theta)
        xi = validate_correlation((u.T * np.array([0.5, 0.3, 0.2])) @ u.conj())
        dec = flat_search(xi, SearchConfig(restarts=4, max_iters=1000))
        assert verify_decomposition(xi, dec).accepted
        assert dec.terms <= 6

    def test_iterations_per_search(self, monkeypatch):
        # one linear solve per Levenberg-Marquardt iteration: the short rung of the
        # first restart decomposes full-rank mixtures inside the decomposable set
        # with 2d terms in at most 15
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
        for d in range(4, 11):
            rng = np.random.default_rng(d)
            for _ in range(3):
                lam = rng.uniform(0.3, 0.6)
                mix = reconstruct_xi(random_flat_decomposition(rng, d, 3))
                xi = validate_correlation(lam * np.eye(d) + (1 - lam) * mix)
                calls.clear()
                dec = flat_search(xi, SearchConfig(restarts=1, max_iters=1000))
                assert verify_decomposition(xi, dec).accepted
                assert dec.terms == 2 * d
                assert len(calls) <= 15

    def test_search_geometry_and_start_points_are_kept_read_only(self):
        # two searches at one d build its geometry and their start point once; a
        # result is the same to the bit on a miss, on a hit and after cache_clear()
        rng = np.random.default_rng(5)
        mix = reconstruct_xi(random_flat_decomposition(rng, 5, 2))
        xi = validate_correlation(0.5 * np.eye(5) + 0.5 * mix)
        config = SearchConfig(restarts=1, max_iters=1000)
        kept = (decomposition._edges, decomposition._start)
        for f in kept:
            f.cache_clear()
        decs = [flat_search(xi, config), flat_search(xi, config)]
        for f in kept:
            info = f.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
            f.cache_clear()
        decs.append(flat_search(xi, config))
        for dec in decs[1:]:
            assert np.array_equal(dec.weights, decs[0].weights)
            assert np.array_equal(dec.phase_vectors, decs[0].phase_vectors)
        iu, inc, kernel = decomposition._edges(5)
        start = decomposition._start((0, 0, 10), 10, 5)
        for a in (*iu, inc, kernel, start):
            assert not a.flags.writeable

    def test_geometry_over_the_byte_cap_is_built_per_call(self):
        # d = 13 fits the 256 KiB cap and is kept; d = 14 is built afresh and kept nowhere
        cap = channels._KEPT_BYTES
        assert decomposition._edge_bytes(13) <= cap < decomposition._edge_bytes(14)
        decomposition._edges.cache_clear()
        first, again = decomposition._edges(14), decomposition._edges(14)
        assert first[1] is not again[1] and np.array_equal(first[2], again[2])
        assert decomposition._edges.cache_info().currsize == 0
        assert decomposition._edges(13) is decomposition._edges(13)
        iu, inc, kernel = first
        assert inc.shape == (14 * 13, 13) and kernel.shape == (14 * 13,) * 2
        assert sum(a.nbytes for a in (*iu, inc, kernel)) == decomposition._edge_bytes(14)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_failed_short_rung_gives_the_face_rung(self, rng, monkeypatch, d):
        # with every 2d-term polish failing, the search returns, bit for bit, the
        # face-bound polish from default_rng([seed, restart])
        polish = decomposition._polish
        face_bound = d * d - d + 1

        def short_fails(x0, m, fit, max_iters):
            return (x0, np.inf) if m < face_bound else polish(x0, m, fit, max_iters)

        monkeypatch.setattr(decomposition, "_polish", short_fails)
        lam = rng.uniform(0.3, 0.6)
        xi = validate_correlation(
            lam * np.eye(d) + (1 - lam) * reconstruct_xi(random_flat_decomposition(rng, d, 3))
        )
        config = SearchConfig(restarts=1, max_iters=1000, seed=7)
        dec = flat_search(xi, config)
        draw = np.random.default_rng([config.seed, 0])
        x0 = np.concatenate(
            [
                draw.uniform(0.0, 2.0 * np.pi, size=face_bound * (d - 1)),
                draw.normal(0.0, 1.0, size=face_bound),
            ]
        )
        x, f = polish(x0, face_bound, decomposition._fit(xi), config.max_iters)
        assert np.sqrt(f) <= 1e-8
        u, p = decomposition._unpack(x, face_bound, d)
        order = np.argsort(-p, kind="stable")
        assert dec.terms == face_bound
        assert np.array_equal(dec.weights, p[order])
        assert np.array_equal(dec.phase_vectors, u[order])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(4, 8))
    def test_interior_mixtures_take_at_most_2d_terms(self, seed, d):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.3, 0.6)
        mix = reconstruct_xi(random_flat_decomposition(rng, d, int(rng.integers(2, 4))))
        xi = validate_correlation(lam * np.eye(d) + (1 - lam) * mix)
        dec = flat_search(xi)
        assert verify_decomposition(xi, dec).accepted
        assert dec.terms <= 2 * d

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), k=st.integers(1, 3))
    def test_rank_deficient_mixtures_take_at_most_the_face_bound(self, seed, d, k):
        # mixtures of 4 or 5 flat vectors at d = 5, 6 are left out: the flat
        # vectors of their faces form thin sets, and the search misses some of
        # those inputs under the default config
        dec = random_flat_decomposition(np.random.default_rng(seed), d, min(k, d))
        xi = validate_correlation(reconstruct_xi(dec))
        r, s = decomposition._face(xi)
        found = flat_search(xi)
        assert verify_decomposition(xi, found).accepted
        assert found.terms <= r * r - s + 1

    @pytest.mark.parametrize(
        "seed, d, k", [(1350375, 3, 2), (62, 3, 1), (187, 4, 1), (128, 6, 3)]
    )
    def test_rounding_degenerate_steps_are_survived(self, seed, d, k):
        # the first three drive mu below the rounding of a singular J J^T, so the
        # damped system is singular in floating point and that step is dropped; in
        # the last the predicted decrease of a kept step rounds to 0
        dec = random_flat_decomposition(np.random.default_rng(seed), d, k)
        xi = validate_correlation(reconstruct_xi(dec))
        assert verify_decomposition(xi, flat_search(xi)).accepted

    def test_channel_equivalence(self, rng):
        # mixture of diagonal-unitary conjugations equals the Schur channel
        for _ in range(20):
            d = int(rng.integers(2, 5))
            dec = random_flat_decomposition(rng, d, d + 2)
            xi = validate_correlation(reconstruct_xi(dec))
            ch = SchurChannel(xi)
            rho = random_density(rng, d)
            assert (
                np.max(np.abs(apply_mixture(dec, rho.matrix) - apply_schrodinger(ch, rho).matrix))
                < 1e-8
            )

    def test_entropy_floor(self, rng):
        for seed in range(20):
            xi = random_correlation(rng, 3)
            dec = flat_search(xi, SearchConfig(seed=seed))
            h = shannon_entropy(dec.weights)
            assert h >= von_neumann_entropy(xi.matrix / 3) - 1e-6
            assert h <= np.log2(3 * 3 - 3 + 1) + 1e-9


class TestDecompose:
    def test_identity_takes_the_clock_family(self):
        for d in (2, 3, 5):
            dec = decompose(validate_correlation(np.eye(d)), seed=4)
            ref = decompose_identity_xi(d)
            assert np.array_equal(dec.weights, ref.weights)
            assert np.array_equal(dec.phase_vectors, ref.phase_vectors)

    def test_one_dimensional_xi_takes_the_one_term_family(self):
        # xi = [[1]] is valid; the clock family starts at d = 2
        xi = validate_correlation(np.eye(1))
        dec = decompose(xi)
        assert dec.weights.tolist() == [1.0] and dec.phase_vectors.tolist() == [[1.0]]
        report = verify_decomposition(xi, dec)
        assert report.accepted and report.residual == 0.0
        rho = DensityMatrix.from_matrix(np.eye(1))
        records, recovered = run_correction(SchurChannel(xi), dec, rho)
        assert [r.probability for r in records] == [1.0]
        assert recovered.matrix.tolist() == [[1.0]]

    def test_qubit_takes_the_closed_form(self, rng):
        xi = random_correlation(rng, 2)
        dec, ref = decompose(xi), decompose_qubit(xi)
        assert np.array_equal(dec.weights, ref.weights)
        assert np.array_equal(dec.phase_vectors, ref.phase_vectors)

    def test_other_inputs_take_the_seeded_search(self, rng):
        xi = random_correlation(rng, 4)
        for seed in (0, 5):
            dec, ref = decompose(xi, seed=seed), flat_search(xi, SearchConfig(seed=seed))
            assert np.array_equal(dec.weights, ref.weights)
            assert np.array_equal(dec.phase_vectors, ref.phase_vectors)


def no_search(*args):
    raise AssertionError("the search ran")


def shifted_gram(seed, r, shift) -> np.ndarray:
    """(1 - shift) G + shift I for the Gram matrix G of r random unit vectors in C^3.

    The diagonal stays 1 and, for r < 3, the least eigenvalue is ``shift``."""
    rng = np.random.default_rng(seed)
    return (1 - shift) * gram(random_vectors(rng, 3, r))[0] + shift * np.eye(3)


class TestFaceDescent:
    # shifts at, around and below RANK_THRESHOLD, and negative within the psd slack
    SHIFTS = [0.0, 1e-14, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-6, 1e-3, 0.2, -5e-10]

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 3), shift=st.sampled_from(SHIFTS))
    def test_exact_and_short_on_random_qutrits(self, seed, r, shift):
        xi = validate_correlation(shifted_gram(seed, r, shift))
        dec = decompose(xi)
        rank = r if shift <= 0 else 3  # of the matrix as built, before rounding
        assert verify_decomposition(xi, dec).accepted
        assert dec.terms <= 2 ** (rank - 1) <= 4
        assert abs(dec.weights.sum() - 1.0) <= DEFAULT_TOL.tr
        assert np.all(dec.phase_vectors[:, 0] == 1)
        assert shannon_entropy(dec.weights) >= von_neumann_entropy(xi.matrix / 3) - 1e-9

    def test_wishart_qutrits_take_the_descent(self, rng, monkeypatch):
        monkeypatch.setattr(decomposition, "_polish", no_search)
        for _ in range(50):
            xi = random_correlation(rng, 3)
            dec = decompose(xi, seed=3)
            assert verify_decomposition(xi, dec).residual <= 1e-13
            assert dec.terms == 4
            assert np.all(np.diff(dec.weights) <= 0)

    def test_determinism(self, rng):
        for xi in (random_correlation(rng, 3), validate_correlation(shifted_gram(5, 2, 0.0))):
            a, b = decompose(xi), decompose(xi, seed=9)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.phase_vectors, b.phase_vectors)


class TestVerifyDecomposition:
    def test_clock_family_is_orthogonal(self):
        for d in (2, 3, 5):
            dec = decompose_identity_xi(d)
            rep = verify_decomposition(validate_correlation(np.eye(d)), dec)
            assert rep.orthogonal_family
            assert rep.accepted

    def test_qubit_family_is_orthogonal(self, rng):
        xi = random_correlation(rng, 2)
        dec = decompose_qubit(xi)
        assert verify_decomposition(xi, dec).orthogonal_family

    def test_padded_duplicate_breaks_orthogonality(self):
        base = decompose_identity_xi(2)
        padded = FlatDecomposition(
            dim=2,
            weights=np.array([0.25, 0.25, 0.5]),
            phase_vectors=np.vstack([base.phase_vectors[0], base.phase_vectors]),
        )
        rep = verify_decomposition(validate_correlation(np.eye(2)), padded)
        assert rep.residual < 1e-12
        assert not rep.orthogonal_family

    def test_orthogonality_matches_the_gram_route(self, rng):
        # past terms = dim the report is settled without the Gram matrix; it must
        # read as the Gram route O_ij = <u_i|u_j>/d would, on both sides
        def gram_route(dec):
            u = dec.phase_vectors
            return bool(np.max(np.abs(u @ u.conj().T / dec.dim - np.eye(dec.terms))) <= 1e-8)

        for d in (2, 3, 4, 6):
            clock = decompose_identity_xi(d)
            cases = [clock, random_flat_decomposition(rng, d, d - 1)]
            for extra in (1, 2, d):
                # the clock family padded with repeats of its own rows, and random terms
                rows = np.vstack([clock.phase_vectors, clock.phase_vectors[:extra]])
                p = rng.dirichlet(np.ones(d + extra))
                cases += [
                    FlatDecomposition(dim=d, weights=p, phase_vectors=rows),
                    random_flat_decomposition(rng, d, d + extra),
                ]
            part = FlatDecomposition(
                dim=d, weights=np.full(d - 1, 1.0 / (d - 1)), phase_vectors=clock.phase_vectors[1:]
            )
            cases.append(part)
            for dec in cases:
                rep = verify_decomposition(validate_correlation(reconstruct_xi(dec)), dec)
                assert rep.orthogonal_family == gram_route(dec)
                assert rep.orthogonal_family == (dec is clock or dec is part or dec.terms == 1)


def one_pass_report(dec, tol, matrix=None):
    """The whole verification as one pass, kept nowhere: the oracle that the
    report from the facts a decomposition keeps must equal field by field."""
    with np.errstate(over="ignore", invalid="ignore"):
        recon = (dec.phase_vectors.T * dec.weights) @ dec.phase_vectors.conj()
        residual = float(np.linalg.norm((recon if matrix is None else matrix) - recon))
        flatness = float(abs(abs(dec.phase_vectors) ** 2 - 1.0).max())
        diagonal_dev = float(abs(recon.diagonal().real - 1.0).max())
        weight_dev = float(abs(dec.weights.sum() - 1.0))
        nz = dec.weights[dec.weights > 0]
        entropy = float(-(nz * np.log2(nz)).sum()) + 0.0
        u = dec.phase_vectors
        orthogonal = dec.terms <= dec.dim and bool(
            np.max(np.abs(u @ u.conj().T / dec.dim - np.eye(dec.terms))) <= 1e-8
        )
    traces_ok = weight_dev <= tol.tr and flatness <= tol.tr and diagonal_dev <= tol.tr
    accepted = residual <= 1e-8 and traces_ok and bool(np.all(dec.weights >= 0))
    return decomposition.VerificationReport(
        residual, flatness, weight_dev, entropy, orthogonal, accepted
    )


def same_report(a, b):
    """Field by field to the bit and in type, NaN equal to NaN: a float's repr
    round-trips it and tells -0.0 from 0.0."""
    return repr(dataclasses.astuple(a)) == repr(dataclasses.astuple(b))


class TestVerificationReuse:
    """A decomposition owns read-only copies of its arrays and keeps, from its
    first verification on, the facts that depend on it alone; every call
    takes the residual against the caller's xi afresh."""

    @staticmethod
    def pair(rng, d=4, terms=5):
        """A validated xi and a decomposition of it."""
        dec = random_flat_decomposition(rng, d, terms)
        return validate_correlation(reconstruct_xi(dec)), dec

    def test_library_decompositions_are_read_only(self, rng):
        xi4 = validate_correlation(0.5 * np.eye(4) + 0.5 * np.ones((4, 4)))
        built = [
            flat_search(xi4, SearchConfig(restarts=4, max_iters=1000)),
            decompose(random_correlation(rng, 3)),  # the face descent
            decompose_qubit(random_correlation(rng, 2)),
            decompose_identity_xi(5),
            serialize.decomposition_from_dict(
                serialize.decomposition_to_dict(decompose_identity_xi(3))
            ),
        ]
        for dec in built:
            assert not dec.weights.flags.writeable
            assert not dec.phase_vectors.flags.writeable

    def test_repeated_call_returns_the_kept_report(self, rng, monkeypatch):
        xi, dec = self.pair(rng)
        calls = []
        recon = decomposition.reconstruct_xi
        monkeypatch.setattr(
            decomposition, "reconstruct_xi", lambda *a: calls.append(1) or recon(*a)
        )
        report = verify_decomposition(xi, dec)
        assert report.accepted
        assert verify_decomposition(xi, dec) == report
        # the correction loop and the bounds verify the same xi: no new reconstruction
        ch = SchurChannel(xi)
        run_correction(ch, dec, random_density(rng, 4))
        bounds_report(ch, dec)
        assert len(calls) == 1

    def test_other_xi_objects_are_verified_afresh(self, rng):
        xi, dec = self.pair(rng)
        report = verify_decomposition(xi, dec)
        equal = validate_correlation(xi.matrix)
        assert verify_decomposition(equal, dec) == report
        m = np.array(xi.matrix)
        m[0, 1] += 1e-3
        m[1, 0] += 1e-3
        perturbed = verify_decomposition(validate_correlation(m), dec)
        assert not perturbed.accepted and perturbed.residual > 1e-4
        # the facts kept do not depend on xi: the first xi is judged as before
        assert verify_decomposition(xi, dec) == report
        assert dec._facts.recon is not xi.matrix and not dec._facts.recon.flags.writeable

    def test_caller_arrays_change_no_kept_report(self, rng):
        # over a caller's writeable arrays, and over read-only views of them
        xi, dec = self.pair(rng)
        for view in (False, True):
            m, w, u = np.array(xi.matrix), np.array(dec.weights), np.array(dec.phase_vectors)
            given = [a[:] if view else a for a in (m, w, u)]
            for a in given:
                a.flags.writeable = not view  # a view is read-only; its base is not
            own_xi = CorrelationMatrix(4, given[0])
            own_dec = FlatDecomposition(4, given[1], given[2])
            report = verify_decomposition(own_xi, own_dec)
            assert report.accepted
            m[0, 1] = m[1, 0] = 0.0
            w[:] = np.roll(w, 1)
            u[:] = 1.0
            assert verify_decomposition(own_xi, own_dec) == report
            assert np.array_equal(own_xi.matrix, xi.matrix)
            assert np.array_equal(own_dec.weights, dec.weights)
            assert np.array_equal(own_dec.phase_vectors, dec.phase_vectors)
            for a in (own_xi.matrix, own_dec.weights, own_dec.phase_vectors):
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_rejected_decomposition_raises_on_every_call(self, rng):
        xi, dec = self.pair(rng)
        wrong = decompose_identity_xi(4)
        ch = SchurChannel(xi)
        rho = random_density(rng, 4)
        for _ in range(2):
            with pytest.raises(VerificationFailure):
                run_correction(ch, wrong, rho)
            with pytest.raises(VerificationFailure):
                bounds_report(ch, wrong)
        report = verify_decomposition(xi, wrong)
        assert not report.accepted and report == one_pass_report(wrong, xi._tol, xi.matrix)

    def test_reconstructs_once_across_distinct_xi_objects(self, rng, monkeypatch):
        # three equal xi objects, each validated afresh, as a stream of requests makes them
        xi, dec = self.pair(rng, d=3, terms=4)
        calls = []
        recon = decomposition.reconstruct_xi
        monkeypatch.setattr(
            decomposition, "reconstruct_xi", lambda *a: calls.append(1) or recon(*a)
        )
        for _ in range(3):
            ch = SchurChannel(validate_correlation(xi.matrix))
            assert verify_decomposition(ch.xi, dec).accepted
            run_correction(ch, dec, random_density(rng, 3))
            bounds_report(ch, dec)
            dilation_from_decomposition(dec)
        assert len(calls) == 1

    def test_replace_keeps_no_facts(self, rng):
        xi, dec = self.pair(rng)
        verify_decomposition(xi, dec)
        assert dec._facts is not None
        assert "_facts" not in vars(dataclasses.replace(dec))


@st.composite
def report_cases(draw):
    """(dec, tol, matrix): a random decomposition, possibly with a negative,
    NaN or inf weight or off-flat phases, against its own xi, a mismatched xi
    or None. A cancelled term repeats the first flat vector with weight -0.1
    and adds 0.1 to the first weight, so xi and the weight sum are kept."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(2, 6))
    terms = draw(st.integers(1, d + 2))
    dec = random_flat_decomposition(rng, d, terms)
    weights, phases = np.array(dec.weights), np.array(dec.phase_vectors)
    spoil = draw(
        st.sampled_from(["none", "negative", "cancel", "nan", "inf", "huge", "phase", "sum"])
    )
    if spoil == "negative":
        weights[0] = -weights[0]
    elif spoil == "cancel":  # a negative weight that only the sign test rejects
        weights[0] += 0.1
        weights, phases = np.append(weights, -0.1), np.vstack([phases, phases[:1]])
    elif spoil in ("nan", "inf", "huge"):
        weights[rng.integers(terms)] = {"nan": np.nan, "inf": np.inf, "huge": 1e300}[spoil]
    elif spoil == "phase":
        phases[rng.integers(terms), rng.integers(d)] *= 1.0 + 1e-6
    elif spoil == "sum":
        weights = weights * (1.0 + 1e-7)
    dec = FlatDecomposition(d, weights, phases)
    target = draw(st.sampled_from(["own", "other", "none"]))
    matrix = None
    if target == "own":
        with np.errstate(over="ignore", invalid="ignore"):  # a spoiled weight: inf or NaN
            matrix = reconstruct_xi(FlatDecomposition(d, dec.weights, dec.phase_vectors))
    elif target == "other":
        matrix = random_correlation(rng, d).matrix
    tol = draw(st.sampled_from([DEFAULT_TOL, ToleranceProfile(tr=1e-5), ToleranceProfile(tr=0.0)]))
    return dec, tol, matrix


class TestReportOracle:
    @settings(max_examples=200, deadline=None)
    @given(report_cases())
    def test_report_from_kept_facts_equals_the_one_pass(self, case):
        dec, tol, matrix = case
        expected = one_pass_report(dec, tol, matrix)
        for _ in range(2):  # the first builds the facts, the second reads them
            assert same_report(decomposition._report(dec, tol, matrix), expected)
        # the facts serve another matrix, and no matrix, unchanged
        assert same_report(decomposition._report(dec, tol), one_pass_report(dec, tol))

    def test_verify_decomposition_equals_the_one_pass(self, rng):
        for d in (2, 3, 4, 6):
            xi, dec = TestVerificationReuse.pair(rng, d, d + 1)
            other = random_correlation(rng, d)
            for target in (xi, other, xi, other):
                got = verify_decomposition(target, dec)
                assert same_report(got, one_pass_report(dec, target._tol, target.matrix))


class TestExtremality:
    def test_all_ones_rank_one(self):
        for d in (2, 3, 4):
            res = extremality_test(validate_correlation(np.ones((d, d))))
            assert res.rank == 1
            assert res.verdict == ExtremalityVerdict.EXTREMAL

    def test_identity_d3_not_extremal(self):
        res = extremality_test(validate_correlation(np.eye(3)))
        assert res.verdict == ExtremalityVerdict.NOT_EXTREMAL
        assert res.rank == 3

    def test_identity_d4_not_extremal(self):
        res = extremality_test(validate_correlation(np.eye(4)))
        assert res.verdict == ExtremalityVerdict.NOT_EXTREMAL
        assert res.rank == 4

    def test_rank_rule_for_d_up_to_3(self, rng):
        # for d <= 3 the extreme correlation matrices are exactly those of rank one
        for _ in range(60):
            d = int(rng.integers(1, 4))
            xi = random_correlation(rng, d) if rng.integers(2) else validate_correlation(
                gram(random_vectors(rng, d, int(rng.integers(1, d + 1))))[0]
            )
            res = extremality_test(xi)
            rank = np.linalg.matrix_rank(xi.matrix, tol=1e-9, hermitian=True)
            assert res.rank == rank
            assert (res.verdict == ExtremalityVerdict.EXTREMAL) == (rank == 1)

    def test_generic_gram_extreme_iff_rank_squared_fits(self, rng):
        for d in range(1, 11):
            for r in range(1, min(d, 4) + 1):
                res = extremality_test(validate_correlation(gram(random_vectors(rng, d, r))[0]))
                assert res.rank == r
                assert (res.verdict == ExtremalityVerdict.EXTREMAL) == (r * r <= d)

    def test_face_count_at_full_rank(self, rng, monkeypatch):
        # full rank: s = d without an SVD, so the face bound is d^2 - d + 1 terms
        def no_svd(*args, **kwargs):
            raise AssertionError("an SVD ran")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for d in range(2, 9):
            assert decomposition._face(random_correlation(rng, d)) == (d, d)
            assert decomposition._face(validate_correlation(np.eye(d))) == (d, d)

    def test_face_is_counted_once_per_xi(self, rng, monkeypatch):
        # extremality_test and flat_search on one xi share the count xi keeps:
        # one span per rank-deficient xi across both calls, none at full rank
        calls = []
        span = decomposition._span
        monkeypatch.setattr(decomposition, "_span", lambda vecs: calls.append(1) or span(vecs))
        config = SearchConfig(restarts=1, max_iters=20)
        cases = [
            (reconstruct_xi(random_flat_decomposition(rng, 5, 2)), 1),  # rank 2, not extreme
            (gram(random_vectors(rng, 4, 2))[0], 1),  # rank 2, extreme: refused at once
            (random_correlation(rng, 4).matrix, 0),  # full rank: no span
        ]
        for m, spans in cases:
            xi = validate_correlation(m)
            calls.clear()
            for _ in range(2):
                extremality_test(xi)
                try:
                    flat_search(xi, config)
                except NoDecompositionFound:
                    pass
            assert len(calls) == spans
            assert decomposition._face(xi) == decomposition._face_count(xi)

    def test_one_term_exactly_when_extremal(self, rng):
        cases = [gram(random_vectors(rng, d, r))[0] for d in range(1, 9) for r in (1, 2, 3) if r <= d]
        cases += [gram(rng.normal(size=(d, 2)) + 0j)[0] for d in (4, 6)]
        cases += [reconstruct_xi(random_flat_decomposition(rng, d, k)) for d in (4, 6) for k in (1, 2, 3)]
        for m in cases:
            xi = validate_correlation(m)
            r, s = decomposition._face(xi)
            extremal = extremality_test(xi).verdict == ExtremalityVerdict.EXTREMAL
            assert (r * r - s + 1 == 1) == extremal

    def test_verdict_agrees_with_null_space_witness(self, rng):
        cases = [gram(random_vectors(rng, d, r)) for d in range(2, 9) for r in (2, 3) if r <= d]
        # r^2 <= d, yet not extreme: real vectors, or only three distinct rays in C^2
        cases += [gram(rng.normal(size=(d, 2)) + 0j) for d in (4, 6)]
        three = random_vectors(rng, 3, 2)
        cases += [gram(np.vstack([three, three[:2] * 1j]))]
        cases += [gram(np.eye(d, dtype=complex)) for d in (2, 4)]
        verdicts = set()
        for m, f in cases:
            xi = validate_correlation(m)
            res = extremality_test(xi)
            verdicts.add(res.verdict)
            h = witness(f)
            if res.verdict == ExtremalityVerdict.EXTREMAL:
                assert h is None
                continue
            assert h is not None
            eps = 0.5 / np.linalg.norm(h, 2)
            shift = eps * f.conj() @ h @ f.T  # entry kl: eps <f_k|H|f_l>
            for sign in (1, -1):
                moved = validate_correlation(m + sign * shift)
                assert np.max(np.abs(moved.matrix - m)) > 1e-6
        assert verdicts == set(ExtremalityVerdict)
