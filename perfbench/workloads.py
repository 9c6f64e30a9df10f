"""The four benchmark workloads: seeded inputs, jobs and their checks.

A workload hands out rounds. A round is a fixed list of jobs whose inputs
are already generated, so only library calls fall inside a job's timer.
``TAIL_PCT`` is the workload's tail percentile: fixed, so that a faster
program, which fits more jobs into a run, reports the same percentile, and
chosen so that a 20 s run has at least ten jobs beyond it that all come
from the round's slowest group.
Each job has ``run(tracer)``, the timed calls into schurmaps, and
``check(result, tracer)``, the untimed correctness check, which returns
``True`` when the output is right. Every random draw comes from
``numpy.random.default_rng([seed, ...])``, so one seed gives one input
stream.
"""

import json
import os
import shutil
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

import schurmaps as sm
from schurmaps import serialize

# One stated search configuration for every flat_search call the benchmark makes.
# The first restart alone missed 14 of 9,600 sampled feasible search-mixed
# inputs, stopping at a residual just above tol (1.0e-8 to 1.5e-8); the second
# found 13 of them and the third the last, so four leave one of margin.
SEARCH = sm.SearchConfig(restarts=4, max_iters=1000, seed=0)


class Job(NamedTuple):
    kind: str
    d: int
    run: Callable
    check: Callable


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def random_state(rng, d, pure):
    """Pure (complex Gaussian ket) or mixed (Ginibre, rank >= 2) density matrix."""
    r = 1 if pure else int(rng.integers(2, d + 1))
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def flat_mixture(rng, d, k):
    """sum_i p_i u_i u_i* over k random flat vectors: decomposable by construction."""
    u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(k, d)))
    p = rng.dirichlet(np.ones(k))
    return np.einsum("i,ik,il->kl", p, u, u.conj())


def interior_mixture(rng, d):
    """Weight 0.3-0.6 spread over the d clock vectors (which mix to I), the rest
    on 2 or 3 random flat vectors: a full-rank flat mixture inside the
    decomposable set, so searches keep all d^2 - d + 1 terms."""
    lam = rng.uniform(0.3, 0.6)
    return lam * np.eye(d) + (1.0 - lam) * flat_mixture(rng, d, int(rng.integers(2, 4)))


def li_tam_extreme(vectors, tol=1e-8):
    """Li-Tam test: the Gram matrix of the rows e_k of ``vectors`` (in C^r) is an
    extreme correlation matrix iff the e_k e_k* span all r x r Hermitian
    matrices, i.e. their real span has dimension r^2."""
    r = vectors.shape[1]
    outer = np.einsum("ka,kb->kab", vectors, vectors.conj()).reshape(len(vectors), -1)
    rows = np.concatenate([outer.real, outer.imag], axis=1)
    sv = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(sv > tol * sv[0])) == r * r


def extreme_rank2(rng, d):
    """Gram matrix of d random unit vectors in C^2, redrawn until Li-Tam certifies
    it extreme with rank 2; no flat decomposition of it exists."""
    while True:
        v = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        xi = v @ v.conj().T
        if np.linalg.matrix_rank(xi, tol=1e-9) == 2 and li_tam_extreme(v):
            return xi


def entropy_bits(m):
    vals = np.linalg.eigvalsh(m)
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def _close(a, b, tol):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


# --------------------------------------------------------------------------
# eraser-sweep


class EraserSweep:
    """xi = I at large d: one eraser_scenario job per d, then seeded states."""

    TAIL_PCT = 90  # 100 jobs a round; the d = 24/32 scenarios and d = 32 states are the top 12

    def __init__(self, seed, tiny=False):
        self.rng = _rng(seed, 1)
        # states per round for each d; the first state of a batch is the flat ket
        self.batch = {3: 3, 4: 3} if tiny else {12: 40, 16: 30, 24: 16, 32: 10}

    def round(self):
        """All scenarios first, then the states interleaved across d, so a slow
        spell on a shared machine does not land on one d alone."""
        scenarios = {}
        jobs = [Job("scenario", d, self._scenario_run(d, scenarios), self._scenario_check)
                for d in self.batch]
        for i in range(max(self.batch.values())):
            for d, n in self.batch.items():
                if i >= n:
                    continue
                m = np.full((d, d), 1.0 / d, dtype=complex) if i == 0 else random_state(
                    self.rng, d, pure=bool(i % 2))
                jobs.append(Job("state", d, self._state_run(d, m, scenarios),
                                self._state_check(m, flat=i == 0)))
        return jobs

    @staticmethod
    def _scenario_run(d, scenarios):
        def run(tr):
            scenarios[d] = tr.call("correction.eraser_scenario", sm.eraser_scenario, d, d=d)
            return scenarios[d]
        return run

    @staticmethod
    def _scenario_check(sc, tr):
        d = sc.dim
        u = sc.dilation.unitary
        n = d * sc.dilation.dim_env
        # the prescribed columns U|k>|0> = |k>|k>, then unitarity on random vectors
        cols = u[:, :: sc.dilation.dim_env]
        expected = np.zeros((n, d), dtype=complex)
        expected[np.arange(d) * sc.dilation.dim_env + np.arange(d), np.arange(d)] = 1.0
        x = _rng(d, 0).normal(size=(n, 2)) + 1j * _rng(d, 1).normal(size=(n, 2))
        k = np.arange(d)
        clock = np.exp(2j * np.pi * np.outer(k, k) / d)  # row j = diagonal of Z_j
        sc.povm.check_complete()
        return (
            _close(cols, expected, 1e-12)
            and _close(u.conj().T @ (u @ x), x, 1e-9 * np.sqrt(n))
            and _close(sc.correction_phases, clock, 1e-12)
            and abs(sc.info_stored_bits - np.log2(d)) < 1e-12
        )

    @staticmethod
    def _state_run(d, m, scenarios):
        def run(tr):
            sc = scenarios[d]
            rho = tr.call("channels.from_matrix", sm.DensityMatrix.from_matrix, m, d=d)
            records, recovered = tr.call("correction.run_eraser", sm.run_eraser, sc, rho, d=d)
            which = tr.call("correction.which_way_readout", sm.which_way_readout, sc, rho, d=d)
            decohered = sm.DensityMatrix(
                d, sum(r.probability * r.conditional_state.matrix for r in which))
            patterns = [
                tr.call("correction.screen_pattern", sm.screen_pattern, s, 360, d=d)
                for s in (rho, decohered, recovered)
            ]
            return records, recovered, which, decohered, patterns
        return run

    @staticmethod
    def _state_check(m, flat):
        def check(result, tr):
            records, recovered, which, decohered, (p_in, p_dec, p_out) = result
            d = m.shape[0]
            residual = float(np.linalg.norm(recovered.matrix - m))
            tr.count("correction.outcomes", len(records) + len(which), d)
            tr.count("correction.recovery_residual", residual, d)
            ok = (
                residual <= 1e-10
                and abs(sum(r.probability for r in records) - 1.0) <= 1e-10
                and _close(decohered.matrix, np.diag(np.diag(m)), 1e-10)
                and _close(p_out.intensities, p_in.intensities, 1e-9)
            )
            if flat:
                ok = ok and _close([p_in.visibility, p_dec.visibility, p_out.visibility],
                                   [1.0, 0.0, 1.0], 1e-9)
            return ok
        return check


# --------------------------------------------------------------------------
# search-mixed


class SearchMixed:
    """Full-rank decomposable flat mixtures at d = 4..10 plus Li-Tam-certified
    extreme rank-2 inputs at d = 4, 5 for which NoDecompositionFound is the answer."""

    TAIL_PCT = 75

    def __init__(self, seed, tiny=False):
        self.rng = _rng(seed, 2)
        # 13 jobs a round: the three d = 9 searches hold the median, and the
        # two d = 10 and three infeasible searches, the slowest five, hold p75
        self.feasible_dims = (3, 4) if tiny else (4, 5, 6, 7, 8, 9, 9, 9, 10, 10)
        self.infeasible_dims = (4,) if tiny else (4, 5, 4)
        self.mixed = {d: sm.DensityMatrix.from_matrix(np.eye(d) / d)
                      for d in set(self.feasible_dims)}

    def round(self):
        jobs = []
        for d in self.feasible_dims:
            xi = interior_mixture(self.rng, d)
            rho = random_state(self.rng, d, pure=False)
            jobs.append(Job("feasible", d, self._run(xi, rho, True), self._check(xi, rho)))
        for d in self.infeasible_dims:
            xi = extreme_rank2(self.rng, d)
            jobs.append(Job("infeasible", d, self._run(xi, None, False), self._check(xi, None)))
        return jobs

    def _run(self, m, rho_m, feasible):
        d = m.shape[0]
        search = "decomposition.flat_search" if feasible else "decomposition.flat_search_infeasible"

        def run(tr):
            xi = tr.call("channels.validate_correlation", sm.validate_correlation, m, d=d)
            ch = sm.SchurChannel(xi)
            ext = tr.call("decomposition.extremality_test", sm.extremality_test, xi, d=d)
            dil = tr.call("dilation.build_dilation", sm.build_dilation, ch, d=d)
            try:
                dec = tr.call(search, sm.flat_search, xi, SEARCH, d=d)
            except sm.NoDecompositionFound as exc:
                if feasible:  # SEARCH decomposes every feasible input: a miss fails the job
                    raise
                return ext, dil, exc
            report = tr.call("decomposition.verify_decomposition", sm.verify_decomposition,
                             xi, dec, d=d, terms=dec.terms)
            rho = tr.call("channels.from_matrix", sm.DensityMatrix.from_matrix, rho_m, d=d)
            records, recovered = tr.call("correction.run_correction", sm.run_correction,
                                         ch, dec, rho, d=d, terms=dec.terms)
            bounds = tr.call("infometrics.bounds_report", sm.bounds_report, ch, dec,
                             d=d, terms=dec.terms)
            s_ex = tr.call("infometrics.entropy_exchange", sm.entropy_exchange,
                           ch, self.mixed[d], d=d)
            return ext, dil, (dec, report, records, recovered, bounds, s_ex)
        return run

    @staticmethod
    def _check(m, rho_m):
        def check(result, tr):
            ext, dil, outcome = result
            d = m.shape[0]
            rank = np.linalg.matrix_rank(m, tol=1e-9, hermitian=True)
            tr.count("dilation.joint_dim", dil.dim_sys * dil.dim_env, d)
            # a verdict may be undecided, but never contradict Li-Tam
            wrong_verdict = "not_extremal" if rho_m is None else "extremal"
            ok = (
                ext.rank == rank
                and ext.verdict.value != wrong_verdict
                and _close(dil.env_vectors.conj() @ dil.env_vectors.T, m, 1e-9)  # <e_k|e_l> = xi_kl
            )
            if rho_m is None:  # extreme rank 2: no flat decomposition exists
                return ok and isinstance(outcome, sm.NoDecompositionFound)
            dec, report, records, recovered, bounds, s_ex = outcome
            s_low = entropy_bits(m / d)
            residual = float(np.linalg.norm(recovered.matrix - rho_m))
            tr.count("correction.outcomes", len(records), d)
            tr.count("correction.recovery_residual", residual, d)
            tr.count("decomposition.h_p_gap_bits", report.shannon_entropy_bits - s_low, d)
            return (
                ok
                and report.accepted
                and _close(sm.reconstruct_xi(dec), m, 1e-8)
                and residual <= 1e-8
                and s_low <= report.shannon_entropy_bits + 1e-9
                and bounds.lower_bound_satisfied
                and abs(bounds.s_xi_over_d - s_low) <= 1e-9
                and abs(s_ex - s_low) <= 1e-9
            )
        return check


# --------------------------------------------------------------------------
# small-stream


class SmallStream:
    """Tiny requests at d = 2, 3, 4 against a pool of prepared decompositions."""

    TAIL_PCT = 90  # the 16 d = 4 requests of a round are its slowest third
    N_ITER = 5
    PER_CHANNEL = 8  # requests per pool channel per round

    def __init__(self, seed, tiny=False):
        self.rng = _rng(seed, 3)
        pool_rng = _rng(seed, 4)
        self.pool = []
        for _ in range(2):
            c = 0.95 * pool_rng.uniform() * np.exp(1j * pool_rng.uniform(0, 2 * np.pi))
            xi = np.array([[1.0, c], [np.conj(c), 1.0]])
            self.pool.append((xi, sm.decompose_qubit(sm.validate_correlation(xi))))
        for d in (3, 4):
            self.pool.append((np.eye(d, dtype=complex), sm.decompose_identity_xi(d)))
            while True:
                xi = interior_mixture(pool_rng, d)
                try:
                    self.pool.append((xi, sm.flat_search(sm.validate_correlation(xi), SEARCH)))
                    break
                except sm.NoDecompositionFound:
                    continue
        if tiny:
            self.pool = self.pool[:3]

    def round(self):
        jobs = []
        for _ in range(self.PER_CHANNEL):
            for xi, dec in self.pool:
                d = xi.shape[0]
                m = random_state(self.rng, d, pure=bool(self.rng.integers(2)))
                jobs.append(Job("request", d, self._run(xi, dec, m), self._check(xi, m)))
        return jobs

    def _run(self, m_xi, dec, m_rho):
        d = m_xi.shape[0]

        def run(tr):
            xi = tr.call("channels.validate_correlation", sm.validate_correlation, m_xi, d=d)
            ch = sm.SchurChannel(xi)
            rho = tr.call("channels.from_matrix", sm.DensityMatrix.from_matrix, m_rho, d=d)
            out = tr.call("channels.apply_schrodinger", sm.apply_schrodinger, ch, rho, d=d)
            out_n = tr.call("channels.iterate", sm.iterate, ch, rho, self.N_ITER, d=d)
            records, recovered = tr.call("correction.run_correction", sm.run_correction,
                                         ch, dec, rho, d=d, terms=dec.terms)
            production = tr.call("infometrics.entropy_production_check",
                                 sm.entropy_production_check, ch, rho, d=d)
            majorized = tr.call("infometrics.majorization_check", sm.majorization_check, out, d=d)
            back = tr.call("serialize.roundtrip", _roundtrip, out_n, d=d)
            return out, out_n, records, recovered, production, majorized, back
        return run

    def _check(self, m_xi, m_rho):
        def check(result, tr):
            out, out_n, records, recovered, production, majorized, back = result
            d = m_xi.shape[0]
            residual = float(np.linalg.norm(recovered.matrix - m_rho))
            tr.count("correction.outcomes", len(records), d)
            tr.count("correction.recovery_residual", residual, d)
            return (
                _close(out.matrix, m_xi.T * m_rho, 1e-12)
                and _close(out_n.matrix, m_xi.T ** self.N_ITER * m_rho, 1e-12)
                and residual <= 1e-8
                and production.satisfied
                and majorized
                and np.array_equal(back.matrix, out_n.matrix)
            )
        return check


def _roundtrip(state):
    text = json.dumps(serialize.matrix_to_dict(state.matrix, "state"))
    return serialize.density_from_dict(json.loads(text))


# --------------------------------------------------------------------------
# cli-cold


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliResult(NamedTuple):
    code: int
    stdout: str
    maxrss_kb: int


def run_process(argv, env, workdir):
    """Run one child to completion; return its exit code, stdout and peak RSS."""
    out_path = os.path.join(workdir, "stdout.txt")
    with open(out_path, "w") as out, open(os.path.join(workdir, "stderr.txt"), "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        return CliResult(proc.returncode, f.read(), usage.ru_maxrss)


class CliCold:
    """One fresh ``python -m schurmaps.cli`` process per job, on generated files."""

    TAIL_PCT = 50  # a run has 18-36 jobs, too few for ten beyond p75
    SUBCOMMANDS = ("validate", "evolve", "decompose", "correct", "bounds", "eraser")
    N_EVOLVE = 20
    ERASER_D = 8

    def __init__(self, seed, workdir, src, tiny=False):
        rng = _rng(seed, 5)
        self.workdir = workdir
        self.env = child_env(src)
        self.eraser_d = 3 if tiny else self.ERASER_D
        self.peak_rss_kb = 0
        os.makedirs(workdir, exist_ok=True)
        while True:
            # the CLI's SearchConfig(seed=0) has the same first restart as SEARCH,
            # with more iterations, so the CLI decomposes this xi too
            xi = interior_mixture(rng, 3)
            try:
                dec = sm.flat_search(sm.validate_correlation(xi), SEARCH)
                break
            except sm.NoDecompositionFound:
                continue
        self.xi = xi
        self.rho = random_state(rng, 3, pure=False)
        self.s_low = entropy_bits(xi / 3)
        self._write("xi.json", serialize.matrix_to_dict(xi, "correlation"))
        self._write("rho.json", serialize.matrix_to_dict(self.rho, "state"))
        self._write("dec.json", serialize.decomposition_to_dict(dec))

    def _write(self, name, obj):
        serialize.save_json(os.path.join(self.workdir, name), obj)

    def argv(self, sub):
        base = [sys.executable, "-m", "schurmaps.cli"]
        return base + {
            "validate": ["--json", "validate", "xi.json"],
            "evolve": ["--out", "ev", "evolve", "xi.json", "rho.json", str(self.N_EVOLVE)],
            "decompose": ["--json", "decompose", "xi.json"],
            "correct": ["--json", "correct", "xi.json", "rho.json", "--dec", "dec.json"],
            "bounds": ["--json", "bounds", "xi.json", "dec.json"],
            "eraser": ["--out", "er", "eraser", "--d", str(self.eraser_d)],
        }[sub]

    def round(self):
        return [Job(sub, 3, self._run(sub), getattr(self, "_check_" + sub))
                for sub in self.SUBCOMMANDS]

    def _run(self, sub):
        argv = self.argv(sub)

        def run(tr):
            res = tr.call("cli." + sub, run_process, argv, self.env, self.workdir, d=3)
            self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
            return res
        return run

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _check_validate(self, res, tr):
        obj = json.loads(res.stdout)
        rank = np.linalg.matrix_rank(self.xi, tol=1e-9, hermitian=True)
        return res.code == 0 and obj["valid"] and obj["dim"] == 3 and obj["rank"] == rank

    def _check_evolve(self, res, tr):
        _, final = serialize.load_matrix(self._path("ev_state.json"))
        with open(self._path("ev_decay.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        expected = self.xi.T ** self.N_EVOLVE * self.rho
        last = [float(v) for v in rows[-1][1:]]
        return (res.code == 0 and len(rows) == self.N_EVOLVE + 1
                and _close(final, expected, 1e-12)
                and _close(last, [abs(expected[0, 1]), abs(expected[0, 2]), abs(expected[1, 2])],
                           1e-12))

    def _check_decompose(self, res, tr):
        obj = json.loads(res.stdout)
        ver = obj["verification"]
        dec = serialize.decomposition_from_dict(obj["decomposition"])
        return (res.code == 0 and ver["accepted"] and ver["residual"] <= 1e-8
                and _close(sm.reconstruct_xi(dec), self.xi, 1e-8)
                and self.s_low <= ver["shannon_entropy_bits"] + 1e-9)

    def _check_correct(self, res, tr):
        obj = json.loads(res.stdout)
        _, recovered = serialize.matrix_from_dict(obj["recovered"])
        probs = sum(o["probability"] for o in obj["outcomes"])
        return (res.code == 0 and obj["recovery_residual"] <= 1e-8
                and _close(recovered, self.rho, 1e-8) and abs(probs - 1.0) <= 1e-10)

    def _check_bounds(self, res, tr):
        obj = json.loads(res.stdout)
        return (res.code == 0 and obj["lower_bound_satisfied"]
                and abs(obj["s_xi_over_d_bits"] - self.s_low) <= 1e-9
                and obj["h_p_bits"] >= self.s_low - 1e-9)

    def _check_eraser(self, res, tr):
        with open(self._path("er_ledger.json")) as f:
            ledger = json.load(f)
        curves = {}
        for part in ("input", "decohered", "corrected"):
            with open(self._path(f"er_{part}.csv")) as f:
                lines = f.read().splitlines()
            curves[part] = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return (res.code == 0 and ledger["d"] == self.eraser_d
                and _close([ledger["visibility_input"], ledger["visibility_decohered"],
                            ledger["visibility_corrected"]], [1.0, 0.0, 1.0], 1e-9)
                and all(len(c) == 360 for c in curves.values())
                and _close(curves["corrected"], curves["input"], 1e-9))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
