"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from schurmaps import (
    DensityMatrix,
    SchurChannel,
    SearchConfig,
    apply_schrodinger,
    build_dilation,
    decompose_identity_xi,
    decompose_qubit,
    dilation_from_decomposition,
    entropy_exchange,
    entropy_exchange_from_decomposition,
    environment_state,
    eraser_scenario,
    flat_search,
    iterate,
    majorization_check,
    partial_trace_env,
    reconstruct_xi,
    run_correction,
    run_eraser,
    screen_pattern,
    serialize,
    shannon_entropy,
    validate_correlation,
    verify_decomposition,
    von_neumann_entropy,
)
from schurmaps.cli import main as cli_main
from schurmaps.dilation import evolve_joint
from conftest import (
    random_correlation,
    random_density,
    random_flat_decomposition,
)


def report(num, name, elapsed=None):
    suffix = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def qubit_cases():
    rng = np.random.default_rng(301)
    cases = []
    for _ in range(500):
        xi = random_correlation(rng, 2)
        cases.append((xi, decompose_qubit(xi)))
    return cases


@pytest.fixture(scope="module")
def qutrit_cases():
    rng = np.random.default_rng(401)
    cases = []
    for i in range(100):
        xi = random_correlation(rng, 3)
        dec = flat_search(xi, SearchConfig(restarts=32, seed=i))
        cases.append((xi, dec))
    return cases


@pytest.fixture(scope="module")
def eraser_decs():
    return {d: decompose_identity_xi(d) for d in range(2, 9)}


def test_criterion_01_eraser_recovery_d2():
    scenario = eraser_scenario(2)
    rho = DensityMatrix.pure([1, 1])
    run_eraser(scenario, rho)  # warm-up, excluded from the timing
    t0 = time.perf_counter()
    records, recovered = run_eraser(scenario, rho)
    elapsed = time.perf_counter() - t0
    assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-10
    probs = [r.probability for r in records]
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert shannon_entropy(probs) == pytest.approx(1.0, abs=1e-12)
    assert scenario.info_stored_bits == 1.0
    assert elapsed < 0.010
    report(1, "eraser recovery d=2", elapsed)


def test_criterion_02_eraser_all_dims():
    rng = np.random.default_rng(201)
    t0 = time.perf_counter()
    for d in range(2, 9):
        scenario = eraser_scenario(d)
        for _ in range(100):
            rho = random_density(rng, d)
            records, recovered = run_eraser(scenario, rho)
            assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-9
        probs = [r.probability for r in records]
        assert shannon_entropy(probs) == pytest.approx(np.log2(d), abs=1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    report(2, "d-dimensional eraser, d=2..8", elapsed)


def test_criterion_03_qubit_equality(qubit_cases):
    rng = np.random.default_rng(302)
    t0 = time.perf_counter()
    for xi, dec in qubit_cases:
        h = shannon_entropy(dec.weights)
        assert abs(h - von_neumann_entropy(xi.matrix / 2)) <= 1e-9
        ch = SchurChannel(xi)
        for _ in range(10):
            rho = random_density(rng, 2)
            _, recovered = run_correction(ch, dec, rho)
            assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, "qubit equality H(p) = S(xi/2), 500 samples", elapsed)


def test_criterion_04_qutrit_invertibility(qutrit_cases):
    rng = np.random.default_rng(402)
    t0 = time.perf_counter()
    for xi, dec in qutrit_cases:
        assert verify_decomposition(xi, dec).residual <= 1e-8
        ch = SchurChannel(xi)
        for _ in range(5):
            rho = random_density(rng, 3)
            _, recovered = run_correction(ch, dec, rho)
            assert np.linalg.norm(recovered.matrix - rho.matrix) <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(4, "qutrit invertibility, 100 searches", elapsed)


def test_criterion_05_entropy_exchange_triple():
    rng = np.random.default_rng(501)
    t0 = time.perf_counter()
    for _ in range(200):
        d = int(rng.integers(2, 6))
        dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 3)))
        xi = validate_correlation(reconstruct_xi(dec))
        ch = SchurChannel(xi)
        rho = random_density(rng, d)
        s_closed = entropy_exchange(ch, rho)
        s_env = von_neumann_entropy(environment_state(build_dilation(ch), rho).matrix)
        s_dec = entropy_exchange_from_decomposition(dec, rho)
        assert abs(s_closed - s_env) <= 1e-8
        assert abs(s_closed - s_dec) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, "entropy-exchange triple agreement, 200 pairs", elapsed)


def test_criterion_06_bounds_sandwich(eraser_decs, qubit_cases, qutrit_cases):
    t0 = time.perf_counter()
    produced = []
    for d, dec in eraser_decs.items():
        produced.append((validate_correlation(np.eye(d)), dec, True))
    for xi, dec in qubit_cases:
        produced.append((xi, dec, True))
    for xi, dec in qutrit_cases:
        produced.append((xi, dec, False))
    for xi, dec, closed_form in produced:
        h = shannon_entropy(dec.weights)
        s_low = von_neumann_entropy(xi.matrix / xi.dim)
        assert s_low <= h + 1e-9
        orthogonal = verify_decomposition(xi, dec).orthogonal_family
        tight = abs(h - s_low) <= 1e-8
        assert tight == orthogonal
        if closed_form:
            rank = int(np.sum(np.linalg.eigvalsh(xi.matrix) > 1e-9))
            assert h <= 2 * np.log2(rank) + 1e-9
    elapsed = time.perf_counter() - t0
    report(6, "bounds sandwich over all produced decompositions", elapsed)


def test_criterion_07_decay_law(tmp_path, monkeypatch):
    rng = np.random.default_rng(701)
    t0 = time.perf_counter()
    for _ in range(100):
        d = int(rng.integers(2, 6))
        ch = SchurChannel(random_correlation(rng, d))
        assert ch.complete
        rho = random_density(rng, d)
        for n in (1, 2, 5, 10, 25, 50):
            out = iterate(ch, rho, n)
            expected = np.abs(ch.xi.matrix.T) ** n * np.abs(rho.matrix)
            assert np.max(np.abs(np.abs(out.matrix) - expected)) <= 1e-9
    monkeypatch.chdir(tmp_path)
    xi = np.array([[1, 0.5], [0.5, 1]])
    serialize.save_json("xi.json", serialize.matrix_to_dict(xi, "correlation"))
    serialize.save_json(
        "rho.json", serialize.matrix_to_dict(np.full((2, 2), 0.5), "state")
    )
    assert cli_main(["--out", "run", "evolve", "xi.json", "rho.json", "30"]) == 0
    rows = [line.split(",") for line in open("run_decay.csv").read().splitlines()[1:]]
    n = np.array([int(r[0]) for r in rows])
    mag = np.array([float(r[1]) for r in rows])
    slope = np.polyfit(n, np.log2(mag), 1)[0]
    assert abs(slope - np.log2(0.5)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    report(7, "exponential decay law + CSV slope", elapsed)


def test_criterion_08_dilation_fidelity():
    rng = np.random.default_rng(801)
    t0 = time.perf_counter()
    for i in range(200):
        d = int(rng.integers(2, 6))
        if i % 2 == 0:
            ch = SchurChannel(random_correlation(rng, d))
            dil = build_dilation(ch)
            vecs = dil.env_vectors
        else:
            dec = random_flat_decomposition(rng, d, int(rng.integers(2, d + 2)))
            ch = SchurChannel(validate_correlation(reconstruct_xi(dec)))
            dil = dilation_from_decomposition(dec)
            vecs = dil.env_vectors
        rho = random_density(rng, d)
        out = partial_trace_env(evolve_joint(dil, rho), d, dil.dim_env)
        assert np.max(np.abs(out - apply_schrodinger(ch, rho).matrix)) <= 1e-9
        u = dil.unitary
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) <= 1e-9
        for k in range(d):
            col = np.zeros(d * dil.dim_env, dtype=complex)
            col[k * dil.dim_env : (k + 1) * dil.dim_env] = vecs[k]
            assert np.linalg.norm(u[:, k * dil.dim_env] - col) <= 1e-9
        gram = np.einsum("ka,la->kl", vecs.conj(), vecs)
        assert np.max(np.abs(gram - ch.xi.matrix)) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, "dilation fidelity, both constructions, 200 samples", elapsed)


def test_criterion_09_visibility_dichotomy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli_main(["--out", "warm", "eraser", "--d", "2"])  # warm-up
    t0 = time.perf_counter()
    assert cli_main(["--out", "er", "eraser", "--d", "2", "--samples", "360"]) == 0
    elapsed = time.perf_counter() - t0

    def visibility(path):
        vals = np.array(
            [float(line.split(",")[1]) for line in open(path).read().splitlines()[1:]]
        )
        return (vals.max() - vals.min()) / (vals.max() + vals.min())

    assert abs(visibility("er_input.csv") - 1.0) <= 1e-9
    assert visibility("er_decohered.csv") <= 1e-9
    assert abs(visibility("er_corrected.csv") - 1.0) <= 1e-9
    # each corrected subensemble individually keeps full fringes
    records, _ = run_eraser(eraser_scenario(2), DensityMatrix.pure([1, 1]))
    for r in records:
        v = screen_pattern(r.corrected_state, 360).visibility
        assert abs(v - 1.0) <= 1e-9
    assert elapsed < 0.100
    report(9, "visibility dichotomy (1, 0, 1)", elapsed)


def test_criterion_10_majorization_sweep():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        if not majorization_check(random_density(rng, d)):
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(10, "majorization sweep, 1000 states", elapsed)
