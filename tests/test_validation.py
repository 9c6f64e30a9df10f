"""Validation at the library's boundaries: non-finite input, aliasing,
settings, and the single acceptance predicate for decompositions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurmaps import (
    DEFAULT_TOL,
    BadCount,
    BadDimension,
    BadTolerance,
    DensityMatrix,
    Dilation,
    EnvPovm,
    FlatDecomposition,
    NotDistribution,
    NotState,
    SchurChannel,
    SchurMapsError,
    SearchConfig,
    SerializationError,
    ShapeMismatch,
    ToleranceProfile,
    VerificationFailure,
    asymptotic_state,
    bounds_report,
    build_dilation,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    entropy_exchange,
    entropy_production_check,
    extremality_test,
    flat_search,
    hermitian_eig,
    kolmogorov_vectors,
    majorization_check,
    partial_trace_env,
    partial_trace_sys,
    run_correction,
    schur_product,
    serialize,
    shannon_entropy,
    validate_correlation,
    verify_decomposition,
    von_neumann_entropy,
)
from conftest import random_correlation, random_density

NON_FINITE = [
    np.nan,
    np.inf,
    -np.inf,
    complex(np.inf, np.inf),
    complex(0.0, np.nan),
    complex(1.0, -np.inf),
]


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 3),
    l=st.integers(0, 3),
    bad=st.sampled_from(NON_FINITE),
    bad_real=st.sampled_from([np.nan, np.inf, -np.inf]),
    mirror=st.booleans(),
)
def test_one_non_finite_entry_is_always_rejected(d, seed, k, l, bad, bad_real, mirror):
    rng = np.random.default_rng(seed)
    k, l = k % d, l % d
    state = random_density(rng, d).matrix.copy()
    corr = random_correlation(rng, d).matrix.copy()
    for m in (state, corr):
        m[k, l] = bad
        if mirror:
            m[l, k] = np.conj(bad)
    probs = np.full(d, 1.0 / d)
    probs[k] = bad_real
    calls = [
        (hermitian_eig, state),
        (hermitian_eig, corr),
        (DensityMatrix.from_matrix, state),
        (von_neumann_entropy, state),
        (validate_correlation, corr),
        (shannon_entropy, probs),
    ]
    for call, arg in calls:
        # a LinAlgError or a returned value fails the test
        with pytest.raises(SchurMapsError):
            call(arg)


RAGGED = [[1, 0], [0]]


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: validate_correlation("ab"), ShapeMismatch, id="xi-str"),
        pytest.param(lambda: validate_correlation(RAGGED), ShapeMismatch, id="xi-ragged"),
        pytest.param(lambda: DensityMatrix.from_matrix("ab"), ShapeMismatch, id="rho-str"),
        pytest.param(lambda: DensityMatrix.from_matrix(RAGGED), ShapeMismatch, id="rho-ragged"),
        pytest.param(lambda: hermitian_eig(RAGGED), ShapeMismatch, id="eig-ragged"),
        pytest.param(lambda: schur_product("ab", [[1]]), ShapeMismatch, id="schur-str"),
        pytest.param(lambda: von_neumann_entropy(RAGGED), ShapeMismatch, id="entropy-ragged"),
        pytest.param(lambda: Dilation(2, 2, "ab"), ShapeMismatch, id="dilation-str"),
        pytest.param(lambda: shannon_entropy(["a"]), NotDistribution, id="shannon-str"),
        pytest.param(lambda: shannon_entropy([1j]), NotDistribution, id="shannon-complex"),
        pytest.param(
            lambda: shannon_entropy(np.array([0.5 + 1j, 0.5])),
            NotDistribution,
            id="shannon-complex-array",
        ),
        pytest.param(
            lambda: serialize.matrix_to_dict("abc", "state"), SerializationError, id="to-dict-str"
        ),
        pytest.param(lambda: partial_trace_env(np.eye(2), 0, 2), BadDimension, id="ptr-env-0"),
        pytest.param(lambda: partial_trace_sys(np.eye(2), -1, -2), BadDimension, id="ptr-sys-neg"),
        pytest.param(
            lambda: partial_trace_env(np.zeros((0, 0)), 0, 0), BadDimension, id="ptr-env-empty"
        ),
        pytest.param(
            lambda: EnvPovm(2, np.eye(3)).check_complete(), ShapeMismatch, id="povm-columns"
        ),
        pytest.param(lambda: EnvPovm(2, np.ones(2)).check_complete(), ShapeMismatch, id="povm-1d"),
    ],
)
def test_malformed_input_raises_library_error(call, error):
    # never numpy's ValueError or TypeError, nor a returned value
    with pytest.raises(error):
        call()


class TestStates:
    def test_from_matrix_copies_the_callers_array(self):
        m = np.full((2, 2), 0.5, dtype=complex)
        rho = DensityMatrix.from_matrix(m)
        m[0, 1] = m[1, 0] = 7.0
        assert np.array_equal(rho.matrix, np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_validated_matrices_are_read_only(self):
        m = np.eye(2, dtype=complex)
        xi = validate_correlation(m)
        m[0, 1] = m[1, 0] = 0.5
        assert np.array_equal(xi.matrix, np.eye(2))
        rho = DensityMatrix.pure([1, 1j])
        for matrix in (xi.matrix, rho.matrix, asymptotic_state(rho).matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    @pytest.mark.parametrize("vector", [[0, 0], [np.nan, 1], [np.inf, 0], [], "ab"])
    def test_pure_rejects_zero_and_non_finite_vectors(self, vector):
        with pytest.raises(NotState):
            DensityMatrix.pure(vector)

    def test_negative_eigenvalue_is_not_a_state(self):
        with pytest.raises(NotState):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))


class TestSettings:
    @pytest.mark.parametrize("field", ["herm", "psd", "tr"])
    @pytest.mark.parametrize("value", [-1e-9, np.nan, np.inf, True, "1e-9"])
    def test_tolerance_must_be_finite_and_nonnegative(self, field, value):
        with pytest.raises(BadTolerance):
            ToleranceProfile(**{field: value})

    def test_zero_tolerance_is_allowed(self):
        assert ToleranceProfile(tr=0.0).tr == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"max_iters": 0},
            {"restarts": -3},
            {"restarts": 2.5},
            {"max_iters": "5"},
            {"max_iters": None},
            {"seed": -1},
            {"seed": 1.0},
        ],
    )
    def test_search_counts_must_be_positive(self, kwargs):
        # restarts and max_iters are integers >= 1, the seed an integer >= 0
        with pytest.raises(BadCount):
            SearchConfig(**kwargs)

    def test_search_accepts_numpy_integers(self):
        config = SearchConfig(restarts=np.int64(2), max_iters=np.uint16(9), seed=np.int32(0))
        assert (config.restarts, config.max_iters, config.seed) == (2, 9, 0)


def scaled_clock(d, factor, u_factor=1.0):
    dec = decompose_identity_xi(d)
    return FlatDecomposition(
        dim=d, weights=dec.weights * factor, phase_vectors=dec.phase_vectors * u_factor
    )


class TestOneAcceptancePredicate:
    def test_weight_sum_judged_against_trace_tolerance(self):
        xi = validate_correlation(np.eye(3))
        assert verify_decomposition(xi, scaled_clock(3, 1 + 5e-10)).accepted
        assert not verify_decomposition(xi, scaled_clock(3, 1 + 3e-9)).accepted
        loose = ToleranceProfile(tr=1e-8)
        assert verify_decomposition(xi, scaled_clock(3, 1 + 3e-9), loose).accepted

    @staticmethod
    def assert_callers_agree(dec, accepted, tol=DEFAULT_TOL):
        """Verification, correction and dilation all accept ``dec`` under ``tol``, or all
        reject it up front."""
        ch = SchurChannel(validate_correlation(np.eye(3)))
        rho = DensityMatrix.pure(np.ones(3))
        assert verify_decomposition(ch.xi, dec, tol).accepted == accepted
        if accepted:
            run_correction(ch, dec, rho, tol)
            kets = dilation_from_decomposition(dec, tol).env_vectors
            assert np.max(np.abs(np.linalg.norm(kets, axis=1) - 1.0)) <= 1e-14
            return
        with pytest.raises(VerificationFailure):
            run_correction(ch, dec, rho, tol)
        with pytest.raises(VerificationFailure):
            dilation_from_decomposition(dec, tol)

    @pytest.mark.parametrize("factor, accepted", [(1 + 5e-10, True), (1 + 3e-9, False)])
    def test_callers_agree_with_verification(self, factor, accepted):
        self.assert_callers_agree(scaled_clock(3, factor), accepted)

    def test_callers_agree_under_a_loose_trace_tolerance(self):
        # weights summing to 1 + 5e-9: the dilation divides each ket by its norm
        loose = ToleranceProfile(tr=1e-8)
        self.assert_callers_agree(scaled_clock(3, 1 + 5e-9), True, loose)
        self.assert_callers_agree(scaled_clock(3, 1 + 3e-8), False, loose)

    @pytest.mark.parametrize(
        "factor, u_factor, accepted",
        [
            (1.0, 1 + 2e-10, True),  # |u|^2 = 1 + 4e-10
            (1.0, 1 + 2e-9, False),  # |u|^2 = 1 + 4e-9, residual 6.9e-9 < RESIDUAL_TOL
            (1 + 8e-10, 1 + 4e-10, False),  # each within tol.tr, the diagonal 1 + 1.6e-9 is not
        ],
    )
    def test_flatness_judged_against_trace_tolerance(self, factor, u_factor, accepted):
        dec = scaled_clock(3, factor, u_factor)
        assert verify_decomposition(validate_correlation(np.eye(3)), dec).residual <= 1e-8
        self.assert_callers_agree(dec, accepted)

    def test_library_decompositions_accepted_and_correctable(self, rng):
        cases = [(validate_correlation(np.eye(d)), decompose_identity_xi(d)) for d in range(2, 9)]
        for _ in range(20):
            xi = random_correlation(rng, 2)
            cases.append((xi, decompose_qubit(xi)))
        for d in (3, 4):
            xi = random_correlation(rng, d)
            cases.append((xi, flat_search(xi, SearchConfig(restarts=8))))
        for xi, dec in cases:
            report = verify_decomposition(xi, dec)
            assert report.accepted
            assert report.flatness_deviation <= 1e-12
            records, _ = run_correction(SchurChannel(xi), dec, random_density(rng, xi.dim))
            for r in records:
                assert abs(np.trace(r.corrected_state.matrix).real - 1.0) <= 1e-12

    def test_negative_weight_rejected(self):
        # reconstructs the all-ones matrix exactly, but sqrt(-0.2) has no meaning
        weights = np.array([0.6, 0.6, -0.2])
        ones = np.ones((3, 2), dtype=complex)
        dec = FlatDecomposition(dim=2, weights=weights, phase_vectors=ones)
        ch = SchurChannel(validate_correlation(np.ones((2, 2))))
        assert not verify_decomposition(ch.xi, dec).accepted
        with pytest.raises(VerificationFailure):
            run_correction(ch, dec, DensityMatrix.pure([1, 1j]))
        with pytest.raises(VerificationFailure):
            dilation_from_decomposition(dec)


LOOSE = ToleranceProfile(herm=1e-8, psd=1e-8)


def loosely_hermitian(m):
    """``m`` with a 3e-9 anti-Hermitian part: outside the default herm, inside LOOSE's.
    Its Hermitian part moves by 1.5e-9, so a singular ``m`` needs LOOSE's psd as well."""
    m = np.array(m, dtype=complex)
    m[0, 1] += 3e-9j
    return m


class TestProfileAppliedOnce:
    """A matrix is checked once, against the caller's profile, where it comes in;
    every function that takes the validated object trusts it."""

    def test_default_profile_rejects_the_inputs(self, rng):
        with pytest.raises(SchurMapsError):
            validate_correlation(loosely_hermitian(random_correlation(rng, 3).matrix))
        with pytest.raises(SchurMapsError):
            DensityMatrix.from_matrix(loosely_hermitian(random_density(rng, 3).matrix))

    @pytest.mark.parametrize("d, rank", [(3, 3), (3, 2), (3, 1), (4, 2), (5, 2)])
    def test_extremality_and_dilation_read_the_hermitian_part(self, rng, d, rank):
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        a = g @ g.conj().T
        s = 1 / np.sqrt(np.diag(a).real)
        m = loosely_hermitian(s[:, None] * a * s[None, :])
        xi = validate_correlation(m, LOOSE)
        hermitian = validate_correlation((m + m.conj().T) / 2, LOOSE)
        assert np.array_equal(kolmogorov_vectors(xi), kolmogorov_vectors(hermitian))
        ext = extremality_test(xi)
        assert ext == extremality_test(hermitian)
        assert np.array_equal(
            build_dilation(SchurChannel(xi)).env_vectors,
            build_dilation(SchurChannel(hermitian)).env_vectors,
        )
        assert bounds_report(SchurChannel(xi), tol=LOOSE).rank == ext.rank

    def test_flat_search_on_a_loosely_validated_xi(self, rng):
        xi = validate_correlation(loosely_hermitian(random_correlation(rng, 3).matrix), LOOSE)
        dec = flat_search(xi, SearchConfig(restarts=8))
        assert verify_decomposition(xi, dec, LOOSE).accepted
        report = bounds_report(SchurChannel(xi), dec, LOOSE)
        assert report.lower_bound_satisfied and report.upper_bound_satisfied

    def test_state_functions_on_a_loosely_validated_state(self, rng):
        for d in (2, 3, 5):
            rho = DensityMatrix.from_matrix(loosely_hermitian(random_density(rng, d).matrix), LOOSE)
            ch = SchurChannel(random_correlation(rng, d))
            assert majorization_check(rho)
            assert entropy_production_check(ch, rho, LOOSE).satisfied
            assert 0 <= entropy_exchange(ch, rho) <= np.log2(d) + 1e-9
