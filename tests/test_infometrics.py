import numpy as np
import pytest

from schurmaps import (
    DensityMatrix,
    DimensionMismatch,
    NotDistribution,
    NotHermitian,
    SchurChannel,
    ToleranceProfile,
    VerificationFailure,
    apply_schrodinger,
    bounds_report,
    build_dilation,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    entropy_exchange,
    entropy_exchange_from_decomposition,
    entropy_production_check,
    environment_state,
    iterate,
    majorization_check,
    reconstruct_xi,
    shannon_entropy,
    validate_correlation,
    von_neumann_entropy,
)
from schurmaps.numerics import _entropy_bits
from conftest import (
    random_correlation,
    random_density,
    random_flat_decomposition,
    random_pure,
)


class TestEntropyExchange:
    def test_eraser_qubit_one_bit(self):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        assert entropy_exchange(ch, rho) == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_exchanges_nothing(self, rng):
        ch = SchurChannel(validate_correlation(np.ones((3, 3))))
        assert entropy_exchange(ch, random_density(rng, 3)) < 1e-9

    def test_binary_value(self):
        ch = SchurChannel(validate_correlation([[1, 0.6], [0.6, 1]]))
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        assert entropy_exchange(ch, rho) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            entropy_exchange(ch, random_density(rng, 3))


class TestEntropyExchangeFromDecomposition:
    def test_single_unitary_is_zero(self, rng):
        dec = random_flat_decomposition(rng, 3, 1)
        dec = type(dec)(dim=3, weights=np.array([1.0]), phase_vectors=dec.phase_vectors)
        assert entropy_exchange_from_decomposition(dec, random_density(rng, 3)) < 1e-12

    def test_clock_family_maximally_mixed(self):
        for d in (2, 3, 4):
            dec = decompose_identity_xi(d)
            rho = DensityMatrix.from_matrix(np.eye(d) / d)
            assert entropy_exchange_from_decomposition(dec, rho) == pytest.approx(
                np.log2(d), abs=1e-10
            )

    def test_qubit_cross_formula(self):
        xi = validate_correlation([[1, 0.6], [0.6, 1]])
        dec = decompose_qubit(xi)
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        s = entropy_exchange_from_decomposition(dec, rho)
        assert s == pytest.approx(0.7219280948873623, abs=1e-10)
        assert s == pytest.approx(entropy_exchange(SchurChannel(xi), rho), abs=1e-10)

    def test_three_way_agreement(self, rng):
        # Schur closed form, environment-state entropy, decomposition form
        for _ in range(50):
            d = int(rng.integers(2, 6))
            dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 3)))
            xi = validate_correlation(reconstruct_xi(dec))
            ch = SchurChannel(xi)
            rho = random_density(rng, d)
            s1 = entropy_exchange(ch, rho)
            s2 = von_neumann_entropy(environment_state(build_dilation(ch), rho).matrix)
            s3 = entropy_exchange_from_decomposition(dec, rho)
            s4 = von_neumann_entropy(
                environment_state(dilation_from_decomposition(dec), rho).matrix
            )
            assert abs(s1 - s2) < 1e-8
            assert abs(s1 - s3) < 1e-8
            assert abs(s1 - s4) < 1e-8


class TestShannonEntropy:
    def test_point_mass(self):
        assert shannon_entropy([1.0]) == 0.0

    def test_uniform(self):
        for d in (2, 3, 8):
            assert shannon_entropy(np.full(d, 1 / d)) == pytest.approx(np.log2(d), abs=1e-12)

    def test_binary(self):
        assert shannon_entropy([0.8, 0.2]) == pytest.approx(0.7219280948873623, abs=1e-12)

    def test_rejects_bad_distribution(self):
        with pytest.raises(NotDistribution):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotDistribution):
            shannon_entropy([-0.1, 1.1])


class TestBoundsReport:
    def test_clock_decomposition_tight(self):
        for d in (2, 3, 4):
            ch = SchurChannel(validate_correlation(np.eye(d)))
            rep = bounds_report(ch, decompose_identity_xi(d))
            assert rep.s_xi_over_d == pytest.approx(np.log2(d), abs=1e-10)
            assert rep.h_p == pytest.approx(np.log2(d), abs=1e-10)
            assert rep.two_log_rank == pytest.approx(2 * np.log2(d), abs=1e-12)
            assert rep.lower_bound_satisfied and rep.upper_bound_satisfied

    def test_qubit_lower_bound_tight(self, rng):
        for _ in range(20):
            xi = random_correlation(rng, 2)
            ch = SchurChannel(xi)
            rep = bounds_report(ch, decompose_qubit(xi))
            assert rep.h_p == pytest.approx(rep.s_xi_over_d, abs=1e-9)
            assert rep.lower_bound_satisfied

    def test_all_ones_forces_trivial(self):
        ch = SchurChannel(validate_correlation(np.ones((3, 3))))
        rep = bounds_report(ch)
        assert rep.s_xi_over_d < 1e-10
        assert rep.rank == 1
        assert rep.two_log_rank == 0.0

    def test_s_ex_maximal_equals_s_xi_over_d(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            ch = SchurChannel(random_correlation(rng, d))
            rep = bounds_report(ch)
            rho = DensityMatrix.from_matrix(np.eye(d) / d)
            assert abs(rep.s_xi_over_d - entropy_exchange(ch, rho)) < 1e-10

    def test_rejects_mismatched_decomposition(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        with pytest.raises(VerificationFailure):
            bounds_report(ch, decompose_identity_xi(3))


class TestEntropyProduction:
    def test_pure_plus_under_eraser_tight(self):
        ch = SchurChannel(validate_correlation(np.eye(2)))
        rep = entropy_production_check(ch, DensityMatrix.pure([1, 1]))
        assert rep.entropy_in == pytest.approx(0.0, abs=1e-10)
        assert rep.entropy_out == pytest.approx(1.0, abs=1e-10)
        assert rep.entropy_exchange == pytest.approx(1.0, abs=1e-10)
        assert rep.satisfied

    def test_diagonal_state_trivial(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        rho = DensityMatrix.from_matrix(np.diag([0.5, 0.3, 0.2]))
        rep = entropy_production_check(ch, rho)
        assert abs(rep.entropy_out - rep.entropy_in) < 1e-10
        assert rep.satisfied

    def test_random_sweep(self, rng):
        for _ in range(50):
            ch = SchurChannel(random_correlation(rng, 3))
            rep = entropy_production_check(ch, random_density(rng, 3))
            assert rep.satisfied

    def test_judged_on_the_trace_normalized_state(self):
        # rho = diag(1 + 5e-7, 0) is a state under tr = 1e-6; every operator of the
        # check has its trace, so each entropy is that of the normalized state, 0
        loose = ToleranceProfile(herm=1e-6, psd=1e-6, tr=1e-6)
        rho = DensityMatrix.from_matrix(np.diag([1.0 + 5e-7, 0.0]), loose)
        rep = entropy_production_check(SchurChannel(validate_correlation(np.ones((2, 2)))), rho)
        assert rep.satisfied
        for s in (rep.entropy_in, rep.entropy_out, rep.entropy_exchange):
            assert abs(s) <= 1e-12

    def test_psd_slack_turns_no_entropy_negative(self):
        # rho = diag(1 + 5e-7, -5e-7) has unit trace and an eigenvalue inside the psd
        # slack; dropping it alone would leave positive parts of trace 1 + 5e-7
        loose = ToleranceProfile(herm=1e-6, psd=1e-6, tr=1e-6)
        rho = DensityMatrix.from_matrix(np.diag([1.0 + 5e-7, -5e-7]), loose)
        rep = entropy_production_check(SchurChannel(validate_correlation(np.ones((2, 2)))), rho)
        assert rep.satisfied
        for s in (rep.entropy_in, rep.entropy_out, rep.entropy_exchange):
            assert s >= 0.0

    # xi and rho pass the default profile, but xi^T o rho has a Hermitian deviation of
    # 1.5e-9, beyond herm = 1e-9
    OFF_HERMITIAN_PAIR = ([[1, -1 + 1e-9], [-1, 1]], [[0.5, 0.5 + 1e-9], [0.5, 0.5]])

    def test_returns_where_the_product_is_off_hermitian(self):
        m_xi, m_rho = self.OFF_HERMITIAN_PAIR
        ch = SchurChannel(validate_correlation(m_xi))
        rep = entropy_production_check(ch, DensityMatrix.from_matrix(m_rho))
        assert rep.satisfied
        for s in (rep.entropy_in, rep.entropy_out, rep.entropy_exchange):
            assert s >= 0.0

    def test_apply_schrodinger_still_refuses_the_off_hermitian_pair(self):
        # the raw full check of a derived state (ROADMAP item 4), still open here
        m_xi, m_rho = self.OFF_HERMITIAN_PAIR
        ch = SchurChannel(validate_correlation(m_xi))
        with pytest.raises(NotHermitian):
            apply_schrodinger(ch, DensityMatrix.from_matrix(m_rho))

    def test_output_spectrum_is_that_of_the_validated_state(self, rng, monkeypatch):
        # the spectrum of the unvalidated product is, to the bit, the one that
        # validating E(rho) solves, and the check validates nothing
        cases = []
        for d in (2, 3, 5):
            ch = SchurChannel(random_correlation(rng, d))
            for rho in (random_density(rng, d), random_pure(rng, d)):
                positive = apply_schrodinger(ch, rho)._eigenvalues
                positive = positive[positive > 0]
                cases.append((ch, rho, _entropy_bits(positive / positive.sum())))

        def refuse(*args, **kwargs):
            raise AssertionError("validated a state")

        monkeypatch.setattr(DensityMatrix, "from_matrix", refuse)
        for ch, rho, s_out in cases:
            assert repr(entropy_production_check(ch, rho).entropy_out) == repr(s_out)

    def test_entropy_nondecreasing_under_iteration(self, rng):
        # complete channels, pure inputs: output entropy grows with n
        for _ in range(10):
            d = int(rng.integers(2, 5))
            ch = SchurChannel(random_correlation(rng, d))
            assert ch.complete
            rho = random_pure(rng, d)
            entropies = [
                von_neumann_entropy(iterate(ch, rho, n).matrix) for n in range(31)
            ]
            assert all(b >= a - 1e-9 for a, b in zip(entropies, entropies[1:]))


class TestMajorization:
    def test_diagonal_state_equality(self):
        assert majorization_check(DensityMatrix.from_matrix(np.diag([0.6, 0.4])))

    def test_pure_plus(self):
        assert majorization_check(DensityMatrix.pure([1, 1]))

    def test_random_sweep(self, rng):
        for _ in range(500):
            d = int(rng.integers(2, 7))
            assert majorization_check(random_density(rng, d))


class TestOrthogonalityEquality:
    def test_equality_iff_orthogonal_family(self, rng):
        # S_ex(I/d) <= H(p), tight exactly for orthogonal unitary families
        from schurmaps import verify_decomposition

        for d in (2, 3):
            dec = decompose_identity_xi(d)
            xi = validate_correlation(np.eye(d))
            rep = verify_decomposition(xi, dec)
            s_low = von_neumann_entropy(xi.matrix / d)
            assert rep.orthogonal_family
            assert abs(shannon_entropy(dec.weights) - s_low) < 1e-8
        for _ in range(20):
            d = int(rng.integers(2, 5))
            dec = random_flat_decomposition(rng, d, d + 2)
            xi = validate_correlation(reconstruct_xi(dec))
            rep = verify_decomposition(xi, dec)
            h = shannon_entropy(dec.weights)
            s_low = von_neumann_entropy(xi.matrix / d)
            assert s_low <= h + 1e-9
            if not rep.orthogonal_family:
                assert h > s_low - 1e-8
