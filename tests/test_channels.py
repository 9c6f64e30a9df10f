import ast
import copy
import dataclasses
import importlib
import inspect
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schurmaps
from schurmaps import (
    DEFAULT_TOL,
    BadCount,
    BadDiagonal,
    CorrectionOutcomeRecord,
    CorrelationMatrix,
    DensityMatrix,
    Dilation,
    EnvPovm,
    FlatDecomposition,
    NotPSD,
    SchurChannel,
    SchurMapsError,
    ScreenPattern,
    ShapeMismatch,
    ToleranceProfile,
    apply_heisenberg,
    apply_schrodinger,
    asymptotic_state,
    decompose_identity_xi,
    decompose_qubit,
    entropy_production_check,
    eraser_scenario,
    iterate,
    majorization_check,
    run_correction,
    run_eraser,
    screen_pattern,
    serialize,
    validate_correlation,
)
from schurmaps import infometrics
from schurmaps.channels import _evolved, _schur_bounds
from schurmaps.correction import _conditional
from schurmaps.numerics import _eigenvalues
from conftest import ROOT, random_correlation, random_density, random_pure


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


def exported_dataclasses():
    """Every dataclass the package exports; the package loads its names on first access,
    so they are read through ``__all__``, not from the names touched so far."""
    exported = (getattr(schurmaps, name) for name in schurmaps.__all__)
    return [v for v in exported if isinstance(v, type) and dataclasses.is_dataclass(v)]


@pytest.mark.parametrize("cls", exported_dataclasses(), ids=lambda cls: cls.__name__)
def test_exported_dataclasses_declare_no_private_fields(cls):
    # what a value object keeps or carries lives in its instance, outside the fields
    assert not [f.name for f in dataclasses.fields(cls) if f.name.startswith("_")]


def package_sources():
    """(module name, syntax tree) of each module of the package."""
    for path in sorted((ROOT / "src" / "schurmaps").glob("*.py")):
        yield f"schurmaps.{path.stem}", ast.parse(path.read_text())


def reads_dict(n) -> bool:
    """Whether node ``n`` reads an instance dict: an attribute ``__dict__`` or a ``vars(...)`` call."""
    return (isinstance(n, ast.Attribute) and n.attr == "__dict__"
            or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "vars")


def dict_readers(body, scope=""):
    """The qualified name of each function, or "<statement>" of each other statement, in
    ``body`` whose code reads an instance dict; classes are searched inside."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from dict_readers(node.body, f"{scope}{node.name}.")
        elif any(reads_dict(n) for n in ast.walk(node)):
            yield scope + (node.name if isinstance(node, ast.FunctionDef) else "<statement>")


def test_instance_dicts_are_read_only_by_pickle_copy_and_the_record_builders():
    # a kept value is written over a class default, never through __dict__ or vars, which
    # turn off CPython's inline attribute storage for the instance; the pickle and
    # copy protocol, and the two record builders that store each value straight in,
    # are the only readers
    found = {f"{module}:{name}" for module, tree in package_sources()
             for name in dict_readers(tree.body)}
    assert found == {
        "schurmaps.channels:_ReadOnlyArrays.__setstate__",
        "schurmaps.channels:_ReadOnlyArrays.__copy__",
        "schurmaps.channels:DensityMatrix.__getstate__",
        "schurmaps.correction:CorrectionOutcomeRecord._uncorrected",
        "schurmaps.correction:CorrectionOutcomeRecord._on_read",
    }


def test_every_kept_value_has_a_class_default_none():
    # _kept(obj, "name", build) reads obj.name against a class default None, which the
    # class of build's first parameter, the object kept on, declares
    kept = []
    for module, tree in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_kept":
                name, build = node.args[1].value, node.args[2].id
                build = getattr(importlib.import_module(module), build)
                cls = next(iter(inspect.signature(build).parameters.values())).annotation
                kept.append((cls.__name__, name))
                assert name in vars(cls) and vars(cls)[name] is None, (cls, name)
    assert sorted(kept) == [
        ("CorrelationMatrix", "_face"), ("CorrelationMatrix", "_factor"),
        ("DensityMatrix", "_eigvals"),
        ("FlatDecomposition", "_facts"), ("FlatDecomposition", "_plan"),
    ]


# one instance, another equal to it, and a third that differs, for each exported
# dataclass that holds an array, itself or in a field
VALUE_SAMPLES = {
    SchurChannel: lambda: (SchurChannel(validate_correlation(np.eye(2))),
                           SchurChannel(validate_correlation(np.eye(2))),
                           SchurChannel(validate_correlation(np.ones((2, 2))))),
    DensityMatrix: lambda: (DensityMatrix.from_matrix(np.eye(2) / 2),
                            DensityMatrix(2, np.eye(2, dtype=complex) / 2),
                            DensityMatrix.pure([1, 0])),
    CorrelationMatrix: lambda: (validate_correlation(np.eye(3)), CorrelationMatrix(3, np.eye(3)),
                                validate_correlation(np.ones((3, 3)))),
    FlatDecomposition: lambda: (decompose_identity_xi(2), decompose_identity_xi(2),
                                decompose_identity_xi(3)),
    ScreenPattern: lambda: (screen_pattern(DensityMatrix.pure([1, 1]), 8),
                            screen_pattern(DensityMatrix.pure([1, 1]), 8),
                            screen_pattern(DensityMatrix.pure([1, 1j]), 8)),
    Dilation: lambda: (Dilation(2, 2, np.eye(2)), Dilation(2, 2, np.eye(2, dtype=complex)),
                       Dilation(2, 2, np.eye(2)[::-1])),
    EnvPovm: lambda: (EnvPovm(2, np.eye(2)), EnvPovm(2, np.eye(2)),
                      EnvPovm(2, np.array([[1, 1], [1, -1]]) / np.sqrt(2))),
    CorrectionOutcomeRecord: lambda: (
        run_eraser(eraser_scenario(2), DensityMatrix.pure([1, 1]))[0][0],
        run_eraser(eraser_scenario(2), DensityMatrix.pure([1, 1]))[0][0],
        run_eraser(eraser_scenario(2), DensityMatrix.pure([1, 1]))[0][1],
    ),
}


def holds_array(cls) -> bool:
    return any(f.type is np.ndarray or (dataclasses.is_dataclass(f.type) and holds_array(f.type))
               for f in dataclasses.fields(cls))


def test_every_exported_array_holder_compares_by_value():
    assert {cls for cls in exported_dataclasses() if holds_array(cls)} == set(VALUE_SAMPLES)
    for cls, make in VALUE_SAMPLES.items():
        a, b, c = make()
        assert type(a) is type(b) is type(c) is cls
        assert a is not b and a == b and not a != b
        assert a != c and not a == c
        assert a != object()
        with pytest.raises(TypeError):
            hash(a)


# the profiles the certificate is tried under: the default, a loose one, and each zero slack
PROFILES = [DEFAULT_TOL, ToleranceProfile(1e-6, 1e-6, 1e-6), ToleranceProfile(herm=0.0),
            ToleranceProfile(psd=0.0), ToleranceProfile(tr=0.0)]
COUNTS = [0, 1, 2, 5, 20, 400]


def hermitian(a):
    return (a + a.conj().T) / 2  # exactly Hermitian, so every zero-slack profile can take it


@st.composite
def image_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 8))
    tol = draw(st.sampled_from(PROFILES))
    kind = draw(st.sampled_from(["wishart", "rank-deficient", "identity", "ones"]))
    if kind in ("wishart", "rank-deficient"):
        r = d if kind == "wishart" else int(rng.integers(1, d + 1))
        v = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
        v /= np.linalg.norm(v, axis=1)[:, None]
        m_xi = hermitian(v @ v.conj().T)
    else:
        m_xi = np.eye(d) if kind == "identity" else np.ones((d, d))
    if draw(st.booleans()):  # xi - s I over 1 - s: unit diagonal, a least eigenvalue >= -psd
        s = rng.uniform() * tol.psd / (1 + tol.psd)
        m_xi = (m_xi - s * np.eye(d)) / (1 - s)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    spectrum = draw(st.sampled_from(["mixed", "pure", "negative"]))
    lam = np.eye(d)[0] if spectrum == "pure" else rng.dirichlet(np.ones(d))
    if d > 1 and spectrum == "negative":  # a least eigenvalue in [-psd, 0]
        lam[0] = -rng.uniform() * tol.psd
        lam /= lam.sum()
    m_rho = hermitian((q * lam) @ q.conj().T)
    return m_xi, m_rho, tol, draw(st.sampled_from(COUNTS))


def judged_as_full_check(ch, rho, n):
    """iterate(ch, rho, n) against from_matrix of the same product: the same refusal,
    or the same matrix, spectrum, deviation and profile; the image if it was certified."""
    product = _evolved(ch, rho, n)
    try:
        full = DensityMatrix.from_matrix(product, rho._tol)
    except SchurMapsError as exc:
        with pytest.raises(SchurMapsError) as refused:
            iterate(ch, rho, n)
        assert type(refused.value) is type(exc) and str(refused.value) == str(exc)
        return None
    image = iterate(ch, rho, n)
    certified = image._eigvals is None
    assert image.matrix.tobytes() == full.matrix.tobytes()
    assert image._eigenvalues.tobytes() == full._eigvals.tobytes()
    assert repr(image._dev) == repr(full._dev) and image._tol is rho._tol
    assert not image.matrix.flags.writeable and not image._eigenvalues.flags.writeable
    return image if certified else None


class TestCertifiedImage:
    """iterate judges (xi^T)^(o n) o rho by a certificate from what xi and rho carry,
    and accepts only what the full check of from_matrix accepts."""

    @settings(max_examples=300, deadline=None)
    @given(image_inputs())
    def test_certificate_accepts_only_what_the_full_check_accepts(self, inputs):
        m_xi, m_rho, tol, n = inputs
        try:
            ch = SchurChannel(validate_correlation(m_xi, tol))
            rho = DensityMatrix.from_matrix(m_rho, tol)
        except SchurMapsError:  # a zero-slack profile refuses most drawn inputs
            return
        image = judged_as_full_check(ch, rho, n)
        if image is not None:  # a certified image is an input that carries its facts
            judged_as_full_check(ch, image, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_default_profile_validates_no_image(self, rng, monkeypatch, d):
        ch = SchurChannel(random_correlation(rng, d))
        states = [random_density(rng, d), DensityMatrix.from_matrix(random_pure(rng, d).matrix)]

        def refuse(*args, **kwargs):
            raise AssertionError("validated a state")

        monkeypatch.setattr(DensityMatrix, "from_matrix", refuse)
        for rho in states:
            for image in [apply_schrodinger(ch, rho)] + [iterate(ch, rho, n) for n in (0, 1, 5, 20)]:
                assert image._eigvals is None and image._dev is not None
                assert image._tol is rho._tol

    def test_certified_spectrum_is_kept_from_its_first_read(self, rng):
        rho = random_density(rng, 3)
        image = iterate(SchurChannel(random_correlation(rng, 3)), rho, 2)
        vals = image._eigenvalues
        assert image._eigenvalues is vals
        assert vals.tobytes() == _eigenvalues(image.matrix).tobytes()

    def test_states_without_facts_take_the_full_check(self, rng, monkeypatch):
        # a directly built xi or rho carries no facts, so the image is validated
        xi = random_correlation(rng, 3)
        rho = random_density(rng, 3)
        calls = []
        full = DensityMatrix.from_matrix
        monkeypatch.setattr(DensityMatrix, "from_matrix",
                            lambda m, tol=DEFAULT_TOL: calls.append(1) or full(m, tol))
        for ch, state in [(SchurChannel(CorrelationMatrix(3, xi.matrix)), rho),
                          (SchurChannel(xi), DensityMatrix(3, rho.matrix))]:
            calls.clear()
            assert iterate(ch, state, 1)._eigvals is not None and calls == [1]

    def test_uncountable_count(self, rng):
        # numpy takes a count as a double; one beyond a double's range is refused
        ch = SchurChannel(random_correlation(rng, 3))
        rho = random_density(rng, 3)
        for n in (10**400, 2**1024):
            with pytest.raises(BadCount):
                iterate(ch, rho, n)
        for n in (2**63, 10**20, 10**300):
            expected = np.power(ch.xi.matrix.T, n) * rho.matrix
            assert iterate(ch, rho, n).matrix.tobytes() == expected.tobytes()


@st.composite
def schur_inputs(draw):
    """A state at its profile's edges and a factor: b b* of a random row b, or numpy's power
    (xi^T)^(o n) of a xi validated with its least eigenvalue at -psd.

    The state's least eigenvalue lies in [-psd, 0], its trace at 1 +- tr and its Hermitian
    deviation up to herm; the profile is the default, a loose one, or one with a zero slack.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    tol = draw(st.sampled_from(PROFILES))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = rng.dirichlet(np.ones(d)) if draw(st.booleans()) else np.eye(d)[0]
    if d > 1:
        lam[-1] = -draw(st.floats(0, 1)) * tol.psd
        lam /= lam.sum()
    m_rho = hermitian((q * lam) @ q.conj().T) * (1 + draw(st.floats(-1, 1)) * tol.tr)
    skew = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    skew -= skew.conj().T  # |skew_kl - conj(skew_lk)| = 2 |skew_kl|
    m_rho += draw(st.floats(0, 1)) * tol.herm / 2 * skew / max(np.abs(skew).max(), 1.0)
    if draw(st.booleans()):
        return tol, m_rho, rng.normal(size=d) + 1j * rng.normal(size=d), None
    r = int(rng.integers(1, d + 1)) if draw(st.booleans()) else 1  # rank 1: a flat u u*
    v = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(d, r))) if r == 1 else (
        rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r)))
    v /= np.linalg.norm(v, axis=1)[:, None]
    s = tol.psd / (1 + tol.psd)  # a singular xi - s I over 1 - s: unit diagonal, lam_min -psd
    m_xi = (hermitian(v @ v.conj().T) - s * np.eye(d)) / (1 - s) if r < d else hermitian(v @ v.conj().T)
    return tol, m_rho, m_xi, draw(st.sampled_from(COUNTS))


# the flat pure state against xi = (J - s I)/(1 - s), s = psd/2, at n = 400: the image's
# least eigenvalue, about -200 s, is all the alpha N term of the bound
SHIFTED_ONES = (DEFAULT_TOL, np.ones((2, 2)) / 2, (np.ones((2, 2)) - 5e-10 * np.eye(2)) / (1 - 5e-10), 400)


@settings(max_examples=300, deadline=None)
@given(schur_inputs())
@example(SHIFTED_ONES)
def test_schur_bounds_hold_on_the_computed_product(inputs):
    # f times each bound is at least what the full check measures on the product the
    # library computes: its Hermitian deviation and minus its least eigenvalue
    tol, m_rho, factor, n = inputs
    try:
        rho = DensityMatrix.from_matrix(m_rho, tol)
        xi = None if n is None else validate_correlation(factor, tol)
    except SchurMapsError:  # a zero-slack profile refuses most drawn inputs
        return
    if xi is None:
        m, f = _conditional(factor, rho.matrix), float((np.abs(factor) ** 2).max())
        herm, psd = _schur_bounds(rho, rho._dev, 3)  # a record's two products
    else:
        m, f = _evolved(SchurChannel(xi), rho, n), 1.0
        herm, psd = _schur_bounds(rho, rho._dev, 2, xi, n)
    assert f * herm >= abs(m - m.conj().T).max()
    assert f * psd >= -_eigenvalues(m)[0]


def test_machine_epsilon_and_the_eigensolve_slack_live_only_in_the_certificate():
    # one source for the slack: every machine epsilon and every literal 64 of the
    # package is read in _schur_bounds
    inside, outside = [], []
    for module, tree in package_sources():
        helper = {id(n) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "_schur_bounds" for n in ast.walk(f)}
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr in ("finfo", "epsilon")
                    or isinstance(n, ast.Constant) and type(n.value) in (int, float) and n.value == 64):
                (inside if id(n) in helper else outside).append(f"{module}:{n.lineno}")
    assert inside and not outside, outside


class TestKeptImage:
    """A validated state points weakly to its image under the last xi object, for
    entropy_production_check to read while the caller holds the image."""

    def test_each_call_builds_the_image_and_points_to_it(self, rng):
        xi, rho = random_correlation(rng, 3), random_density(rng, 3)
        image = apply_schrodinger(SchurChannel(xi), rho)
        again = apply_schrodinger(SchurChannel(xi), rho)
        assert again is not image and again == image
        assert rho._image[0] is xi and rho._image[1]() is again
        other = SchurChannel(random_correlation(rng, 3))
        fresh = apply_schrodinger(other, rho)
        assert fresh != image and rho._image[0] is other.xi and rho._image[1]() is fresh
        # the pointer is keyed by the xi object: another channel solves its own product
        twin = SchurChannel(validate_correlation(xi.matrix))
        solved = entropy_production_check(twin, DensityMatrix(3, rho.matrix))
        assert entropy_production_check(twin, rho) == solved

    def test_state_built_directly_keeps_no_pointer(self, rng):
        # a read-only view of a caller's writeable array: a later change must show
        ch = SchurChannel(random_correlation(rng, 3))
        base = np.array(random_density(rng, 3).matrix)
        view = base.view()
        view.flags.writeable = False
        rho = DensityMatrix(3, view)
        image = apply_schrodinger(ch, rho)
        assert rho._image is None and "_image" not in vars(rho)
        base[...] = random_density(rng, 3).matrix
        assert not np.array_equal(image.matrix, _evolved(ch, rho, 1))
        assert entropy_production_check(ch, rho) == entropy_production_check(
            ch, DensityMatrix(3, np.array(base))
        )

    def test_a_chain_of_calls_holds_no_chain_of_states(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        rho = random_density(rng, 3)
        state, early = rho, []
        for k in range(2000):
            state = apply_schrodinger(ch, state)
            if k < 3:
                early.append(weakref.ref(state))
        assert all(ref() is None for ref in early)  # each freed once the loop moved on
        for back in (pickle.loads(pickle.dumps(rho)), copy.deepcopy(rho)):
            assert back == rho and "_image" not in vars(back)

    def test_pickle_and_copies_of_a_state_that_points_to_its_image(self, rng):
        ch = SchurChannel(random_correlation(rng, 3))
        rho = random_density(rng, 3)
        image = apply_schrodinger(ch, rho)
        report = entropy_production_check(ch, rho)
        for back in (pickle.loads(pickle.dumps(rho)), copy.deepcopy(rho)):
            assert back == rho and "_image" not in vars(back)
            assert not back.matrix.flags.writeable
            assert entropy_production_check(ch, back) == report
        shallow = copy.copy(rho)  # shares the matrix, so the image is its image too
        assert shallow.matrix is rho.matrix and shallow._image[1]() is image

    def test_a_freed_image_is_solved_again(self, rng):
        ch = SchurChannel(random_correlation(rng, 4))
        rho = random_density(rng, 4)
        before = entropy_production_check(ch, rho)
        apply_schrodinger(ch, rho)  # not held, so freed at once
        assert rho._image[1]() is None
        assert entropy_production_check(ch, rho) == before

    def test_entropy_check_reads_the_kept_spectrum(self, rng, monkeypatch):
        ch = SchurChannel(random_correlation(rng, 4))
        rho = random_density(rng, 4)
        before = entropy_production_check(ch, rho)
        image = apply_schrodinger(ch, rho)

        def refuse(*args):
            raise AssertionError("solved the product again")

        monkeypatch.setattr(infometrics, "_evolved", refuse)
        assert entropy_production_check(ch, rho) == before
        assert image._eigvals is not None  # solved by the check, kept for majorization_check
        assert majorization_check(image)


@pytest.mark.parametrize(
    "m_xi, dec",
    [(np.array([[1, 0.3 + 0.2j], [0.3 - 0.2j, 1]]), "qubit"), (np.eye(3), "identity")],
)
def test_eigensolves_per_small_request(rng, monkeypatch, m_xi, dec):
    # validate xi and rho, E(rho) and E^5(rho), a correction, the entropy and
    # majorization checks and a JSON round trip: xi, rho, the exchange operator,
    # E(rho) once, shared by the checks, and the round trip's state
    d = m_xi.shape[0]
    dec = decompose_qubit(validate_correlation(m_xi)) if dec == "qubit" else decompose_identity_xi(d)
    m_rho = random_density(rng, d).matrix
    calls = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, solve=solve, **k: calls.append(1) or solve(*a, **k)
        )
    ch = SchurChannel(validate_correlation(m_xi))
    rho = DensityMatrix.from_matrix(m_rho)
    out = apply_schrodinger(ch, rho)
    out_n = iterate(ch, rho, 5)
    run_correction(ch, dec, rho)
    assert entropy_production_check(ch, rho).satisfied
    assert majorization_check(out)
    serialize.density_from_dict(serialize.matrix_to_dict(out_n.matrix, "state"))
    assert len(calls) == 5
