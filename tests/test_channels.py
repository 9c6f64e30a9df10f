import dataclasses

import numpy as np
import pytest

import schurmaps
from schurmaps import (
    BadDiagonal,
    DensityMatrix,
    NotPSD,
    SchurChannel,
    SchurMapsError,
    ShapeMismatch,
    apply_heisenberg,
    apply_schrodinger,
    asymptotic_state,
    choi_operator,
    entropy_production_check,
    eraser_scenario,
    hermitian_eig,
    iterate,
    jamiolkowski_operator,
    run_eraser,
    validate_correlation,
)
from schurmaps.numerics import _eigenvalues
from conftest import random_correlation, random_density


def channel(m) -> SchurChannel:
    return SchurChannel(validate_correlation(m))


class TestValidateCorrelation:
    def test_identity_complete(self):
        ch = channel(np.eye(3))
        assert ch.complete

    def test_all_ones_not_complete(self):
        ch = channel(np.ones((3, 3)))
        assert not ch.complete

    def test_not_psd(self):
        # eigenvalues 1 +/- 1.2
        with pytest.raises(NotPSD) as exc:
            validate_correlation([[1, 1.2], [1.2, 1]])
        assert exc.value.min_eigenvalue == pytest.approx(-0.2)

    def test_bad_diagonal(self):
        with pytest.raises(BadDiagonal) as exc:
            validate_correlation([[1, 0], [0, 0.9]])
        assert exc.value.index == 1

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({0: 1.5}, "diagonal entry 0 is (1.5+0j), expected 1"),
            # the first bad entry is reported, with its value as validation read it
            ({2: 0.25, 3: 2.0}, "diagonal entry 2 is (0.25+0j), expected 1"),
            ({3: 1 + 2e-9, 1: 1 - 5e-10}, "diagonal entry 3 is (1.000000002+0j), expected 1"),
        ],
    )
    def test_bad_diagonal_names_the_first_entry(self, entries, message):
        m = np.eye(4, dtype=complex)
        for k, v in entries.items():
            m[k, k] = v
        with pytest.raises(BadDiagonal) as exc:
            validate_correlation(m)
        k = min(k for k, v in entries.items() if abs(v - 1) > 1e-9)
        assert str(exc.value) == message
        assert exc.value.index == k and exc.value.value == entries[k]

    def test_nan_diagonal_is_refused(self):
        m = np.eye(3)
        m[1, 1] = np.nan
        with pytest.raises(SchurMapsError, match="nan exceeds"):
            validate_correlation(m)

    def test_diagonal_snapping(self):
        xi = validate_correlation([[1 + 5e-10, 0.2], [0.2, 1 - 5e-10]])
        assert np.array_equal(np.diag(xi.matrix), np.ones(2))

    def test_d1_identity_channel(self):
        ch = channel([[1.0]])
        rho = DensityMatrix.from_matrix([[1.0]])
        assert np.allclose(apply_schrodinger(ch, rho).matrix, [[1.0]])


class TestApply:
    def test_all_ones_acts_as_identity(self, rng):
        ch = channel(np.ones((3, 3)))
        o = rng.normal(size=(3, 3))
        assert np.allclose(apply_heisenberg(ch, o), o)

    def test_identity_xi_extracts_diagonal(self, rng):
        ch = channel(np.eye(3))
        o = rng.normal(size=(3, 3))
        assert np.allclose(apply_heisenberg(ch, o), np.diag(np.diag(o)))

    def test_heisenberg_by_hand(self):
        ch = channel([[1, 0.5], [0.5, 1]])
        sx = np.array([[0, 1], [1, 0]])
        assert np.allclose(apply_heisenberg(ch, sx), [[0, 0.5], [0.5, 0]])

    def test_schrodinger_transposes_complex_xi(self):
        ch = channel([[1, 0.5j], [-0.5j, 1]])
        rho = DensityMatrix.pure([1, 1])
        out = apply_schrodinger(ch, rho)
        assert out.matrix[0, 1] == pytest.approx(-0.25j)

    def test_schrodinger_real_xi_matches_heisenberg(self, rng):
        xi = np.full((3, 3), 0.3)
        np.fill_diagonal(xi, 1.0)
        ch = channel(xi)
        rho = random_density(rng, 3)
        assert np.allclose(
            apply_schrodinger(ch, rho).matrix, apply_heisenberg(ch, rho.matrix)
        )

    def test_identity_xi_gives_asymptotic_state(self, rng):
        ch = channel(np.eye(4))
        rho = random_density(rng, 4)
        out = apply_schrodinger(ch, rho)
        assert np.allclose(out.matrix, asymptotic_state(rho).matrix)

    def test_shape_mismatch(self, rng):
        ch = channel(np.eye(2))
        with pytest.raises(ShapeMismatch):
            apply_heisenberg(ch, np.eye(3))

    def test_preserves_classical_algebra_exactly(self, rng):
        # diagonal observables pass through unchanged
        for _ in range(20):
            d = int(rng.integers(2, 6))
            ch = SchurChannel(random_correlation(rng, d))
            o = np.diag(rng.normal(size=d)).astype(complex)
            assert np.array_equal(apply_heisenberg(ch, o), o)

    def test_trace_preserved(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            ch = SchurChannel(random_correlation(rng, d))
            rho = random_density(rng, d)
            out = apply_schrodinger(ch, rho)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10


class TestIterate:
    def test_zero_iterations(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        rho = random_density(rng, 3)
        assert np.allclose(iterate(ch, rho, 0).matrix, rho.matrix)

    def test_negative_count_rejected(self, rng):
        ch = SchurChannel(random_correlation(rng, 2))
        with pytest.raises(SchurMapsError):
            iterate(ch, random_density(rng, 2), -1)

    @pytest.mark.parametrize("n", [2.5, 2.0, "3", None, True])
    def test_non_integral_count_rejected(self, rng, n):
        ch = SchurChannel(random_correlation(rng, 2))
        with pytest.raises(SchurMapsError):
            iterate(ch, random_density(rng, 2), n)

    def test_decay_by_hand(self):
        ch = channel([[1, 0.5], [0.5, 1]])
        rho = DensityMatrix.pure([1, 1])
        out = iterate(ch, rho, 3)
        assert abs(out.matrix[0, 1]) == pytest.approx(0.0625)

    def test_identity_xi_one_step(self, rng):
        ch = channel(np.eye(3))
        rho = random_density(rng, 3)
        assert np.allclose(iterate(ch, rho, 1).matrix, asymptotic_state(rho).matrix)

    def test_decay_law(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            ch = SchurChannel(random_correlation(rng, d))
            rho = random_density(rng, d)
            for n in (1, 5, 17, 50):
                out = iterate(ch, rho, n)
                expected = np.abs(ch.xi.matrix.T) ** n * np.abs(rho.matrix)
                assert np.max(np.abs(np.abs(out.matrix) - expected)) < 1e-10

    def test_converges_to_asymptotic_state(self, rng):
        ch = SchurChannel(random_correlation(rng, 4))
        assert ch.complete
        rho = random_density(rng, 4)
        out = iterate(ch, rho, 400)
        assert np.linalg.norm(out.matrix - asymptotic_state(rho).matrix) < 1e-6

    def test_semigroup(self, rng):
        ch = SchurChannel(random_correlation(rng, 4))
        rho = random_density(rng, 4)
        a = iterate(ch, rho, 7)
        b = iterate(ch, iterate(ch, rho, 3), 4)
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-10

    def test_matches_repeated_application(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        rho = random_density(rng, 3)
        stepped = rho
        for _ in range(6):
            stepped = apply_schrodinger(ch, stepped)
        assert np.max(np.abs(iterate(ch, rho, 6).matrix - stepped.matrix)) < 1e-12


class TestAsymptoticState:
    def test_diagonal_fixed_point(self):
        rho = DensityMatrix.from_matrix(np.diag([0.7, 0.3]))
        assert np.allclose(asymptotic_state(rho).matrix, rho.matrix)

    def test_plus_state(self):
        rho = DensityMatrix.pure([1, 1])
        assert np.allclose(asymptotic_state(rho).matrix, np.eye(2) / 2)

    def test_definition(self):
        rho = DensityMatrix.from_matrix([[0.7, 0.3], [0.3, 0.3]])
        assert np.allclose(asymptotic_state(rho).matrix, np.diag([0.7, 0.3]))


class TestCarriedSpectrum:
    """A state from :meth:`DensityMatrix.from_matrix` carries the ascending
    eigenvalues of its Hermitian part; any other state solves them on every read."""

    @staticmethod
    def assert_bit_equal(vals, state):
        expected = _eigenvalues(state.matrix)
        assert vals.dtype == expected.dtype and vals.tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            vals[0] = 0.0

    @classmethod
    def assert_carried(cls, state):
        vals = state._eigenvalues
        cls.assert_bit_equal(vals, state)
        assert state._eigenvalues is vals

    @classmethod
    def assert_solved_again(cls, state):
        vals = state._eigenvalues
        cls.assert_bit_equal(vals, state)
        again = state._eigenvalues
        assert again is not vals and again.tobytes() == vals.tobytes()
        assert state._eigvals is None

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_from_matrix_carries_its_solve(self, rng, d):
        # within the Hermitian tolerance, so the Hermitian part differs from the matrix
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        m = m / np.trace(m).real + 1e-10j * np.eye(d)
        state = DensityMatrix.from_matrix(m)
        assert state._eigvals is not None
        self.assert_carried(state)

    def test_built_states_are_solved_on_every_read(self, rng):
        rho = random_density(rng, 4)
        records, _ = run_eraser(eraser_scenario(4), rho)
        built = [
            DensityMatrix.pure(rng.normal(size=4) + 1j * rng.normal(size=4)),
            asymptotic_state(rho),
            records[0].conditional_state,
        ]
        for state in built:
            self.assert_solved_again(state)

    def test_writeable_matrices_are_solved_on_every_read(self, rng):
        m = random_density(rng, 4).matrix
        view = np.array(m)[:]
        view.flags.writeable = False  # read-only, but a view of a writeable array
        for state in (DensityMatrix(4, np.array(m)), DensityMatrix(4, view)):
            self.assert_solved_again(state)

    def test_later_change_to_the_caller_array_shows_in_the_entropy(self):
        # a directly built state over the caller's writeable array is trusted as it
        # stands at each call: its spectrum is never kept from an earlier one
        m = np.diag([0.5, 0.5]).astype(complex)
        state = DensityMatrix(2, m)
        ch = channel(np.eye(2))
        assert entropy_production_check(ch, state).entropy_in == pytest.approx(1.0)
        m[:] = [[0.5, 0.5], [0.5, 0.5]]
        assert entropy_production_check(ch, state).entropy_in == pytest.approx(0.0, abs=1e-9)

    def test_caller_array_changes_nothing(self, rng):
        m = random_density(rng, 3).matrix.copy()
        state = DensityMatrix.from_matrix(m)
        matrix, vals = state.matrix.copy(), state._eigenvalues.copy()
        m[:] = np.eye(3)
        assert np.array_equal(state.matrix, matrix)
        assert np.array_equal(state._eigenvalues, vals)

    def test_repr_equality_and_replace_ignore_it(self, rng):
        state = DensityMatrix.from_matrix(random_density(rng, 3).matrix)
        bare = DensityMatrix(state.dim, state.matrix)
        assert state == bare
        assert repr(state) == repr(bare)
        assert "_eigvals" not in repr(state)
        other = dataclasses.replace(state, matrix=np.eye(3, dtype=complex) / 3)
        assert other._eigvals is None
        self.assert_solved_again(other)


class TestChoiJamiolkowski:
    def test_all_ones_choi_is_maximally_entangled(self):
        ch = channel(np.ones((2, 2)))
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0
        assert np.allclose(choi_operator(ch), np.outer(phi, phi))

    def test_identity_xi_choi(self):
        ch = channel(np.eye(2))
        assert np.allclose(choi_operator(ch), np.diag([1.0, 0, 0, 1.0]))

    def test_choi_psd_trace_d(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            ch = SchurChannel(random_correlation(rng, d))
            r = choi_operator(ch)
            assert hermitian_eig(r).eigenvalues.min() >= -1e-9
            assert np.trace(r).real == pytest.approx(d)

    def test_jamiolkowski_identity_xi_matches_choi(self):
        ch = channel(np.eye(3))
        assert np.allclose(jamiolkowski_operator(ch), choi_operator(ch))

    def test_jamiolkowski_entry(self):
        c = 0.3 + 0.2j
        ch = channel([[1, c], [np.conj(c), 1]])
        r = jamiolkowski_operator(ch)
        # <2,1| R_J |1,2> = xi_12 in 1-based labels
        assert r[2, 1] == pytest.approx(c)

    def test_jamiolkowski_trace(self, rng):
        ch = SchurChannel(random_correlation(rng, 4))
        assert np.trace(jamiolkowski_operator(ch)).real == pytest.approx(4.0)

    def test_entrywise_consistency(self, rng):
        # <l,k|R_J|k,l> = <k,k|R_C|l,l>
        d = 3
        ch = SchurChannel(random_correlation(rng, d))
        rc, rj = choi_operator(ch), jamiolkowski_operator(ch)
        for k in range(d):
            for l in range(d):
                assert rj[l * d + k, k * d + l] == pytest.approx(rc[k * d + k, l * d + l])


    def test_matches_entry_loops(self, rng):
        for d in (1, 2, 3, 5):
            ch = SchurChannel(random_correlation(rng, d))
            rc = np.zeros((d * d, d * d), dtype=complex)
            rj = np.zeros((d * d, d * d), dtype=complex)
            for k in range(d):
                for l in range(d):
                    rc[k * d + k, l * d + l] = ch.xi.matrix[k, l]
                    rj[l * d + k, k * d + l] = ch.xi.matrix[k, l]
            assert np.array_equal(choi_operator(ch), rc)
            assert np.array_equal(jamiolkowski_operator(ch), rj)


class TestConvexity:
    def test_mixture_channel_is_mixture_of_outputs(self, rng):
        lam = 0.3
        xi1 = random_correlation(rng, 3)
        xi2 = random_correlation(rng, 3)
        mixed = channel(lam * xi1.matrix + (1 - lam) * xi2.matrix)
        rho = random_density(rng, 3)
        out_mixed = apply_schrodinger(mixed, rho).matrix
        out_parts = (
            lam * apply_schrodinger(SchurChannel(xi1), rho).matrix
            + (1 - lam) * apply_schrodinger(SchurChannel(xi2), rho).matrix
        )
        assert np.max(np.abs(out_mixed - out_parts)) < 1e-12


@pytest.mark.parametrize(
    "cls",
    [v for v in vars(schurmaps).values() if isinstance(v, type) and dataclasses.is_dataclass(v)],
    ids=lambda cls: cls.__name__,
)
def test_exported_dataclasses_declare_no_private_fields(cls):
    # what a value object keeps or carries lives in its instance, outside the fields
    assert not [f.name for f in dataclasses.fields(cls) if f.name.startswith("_")]
