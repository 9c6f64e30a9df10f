import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schurmaps import FlatDecomposition, cli, decompose_identity_xi, serialize
from schurmaps.cli import main
from conftest import random_correlation, random_density, src_env


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_matrix(path, m, kind):
    serialize.save_json(path, serialize.matrix_to_dict(m, kind))
    return str(path)


class TestValidate:
    def test_identity(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        assert main(["validate", p]) == 0
        out = capsys.readouterr().out
        assert "complete decoherence: yes" in out
        assert "not_extremal" in out

    def test_all_ones(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", np.ones((3, 3)), "correlation")
        assert main(["validate", p]) == 0
        out = capsys.readouterr().out
        assert "complete decoherence: no" in out
        assert "rank 1" in out

    def test_non_psd_exits_2(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", [[1, 1.2], [1.2, 1]], "correlation")
        assert main(["validate", p]) == 2
        assert "-2" in capsys.readouterr().err  # most-negative eigenvalue reported

    def test_missing_file_exits_4(self, workdir):
        assert main(["validate", "nope.json"]) == 4

    def test_json_output(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        assert main(["--json", "validate", p]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["valid"] and obj["complete"]


class TestEvolve:
    def test_zero_steps_echoes_input(self, workdir, rng):
        rho = random_density(rng, 2).matrix
        xp = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        assert main(["--out", "run", "evolve", xp, rp, "0"]) == 0
        _, back = serialize.load_matrix("run_state.json")
        assert np.max(np.abs(back - rho)) < 1e-15

    def test_identity_xi_one_step_diagonal(self, workdir, rng):
        rho = random_density(rng, 3).matrix
        xp = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        assert main(["--out", "run", "evolve", xp, rp, "1"]) == 0
        _, back = serialize.load_matrix("run_state.json")
        assert np.max(np.abs(back - np.diag(np.diag(rho)))) < 1e-12

    def test_negative_steps_exit_2_without_files(self, workdir, capsys):
        xp = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        rp = write_matrix(workdir / "rho.json", np.eye(2) / 2, "state")
        assert main(["--out", "ev", "evolve", xp, rp, "-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["rho.json", "xi.json"]

    def test_decay_slope(self, workdir):
        xi = np.array([[1, 0.5], [0.5, 1]])
        rho = np.full((2, 2), 0.5)
        xp = write_matrix(workdir / "xi.json", xi, "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        assert main(["--out", "run", "evolve", xp, rp, "20"]) == 0
        rows = [
            line.split(",") for line in Path("run_decay.csv").read_text().splitlines()[1:]
        ]
        n = np.array([int(r[0]) for r in rows])
        mag = np.array([float(r[1]) for r in rows])
        slope = np.polyfit(n, np.log2(mag), 1)[0]
        assert abs(slope - np.log2(0.5)) < 1e-6


class TestDecompose:
    def test_negative_seed_exits_2(self, workdir, rng, capsys):
        p = write_matrix(workdir / "xi.json", random_correlation(rng, 3).matrix, "correlation")
        assert main(["--seed", "-1", "decompose", p]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [[[1, 0.6], [0.6, 1]], np.eye(3)], ids=["qubit", "identity"])
    def test_negative_seed_exits_2_on_every_route(self, workdir, capsys, m):
        p = write_matrix(workdir / "xi.json", m, "correlation")
        assert main(["--seed", "-1", "decompose", p]) == 2
        assert "seed" in capsys.readouterr().err

    def test_qubit_matches_closed_form(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", [[1, 0.6], [0.6, 1]], "correlation")
        assert main(["--json", "--out", "dec", "decompose", p]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verification"]["accepted"]
        assert obj["decomposition"]["weights"] == [0.8, 0.2]

    def test_identity_uses_clock_form(self, workdir, capsys):
        p = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        assert main(["--json", "decompose", p]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["decomposition"]["weights"]) == 3
        assert obj["verification"]["orthogonal_family"]

    def test_qutrit_search(self, workdir, rng, capsys):
        xi = random_correlation(rng, 3).matrix
        p = write_matrix(workdir / "xi.json", xi, "correlation")
        assert main(["--json", "--seed", "5", "decompose", p]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verification"]["residual"] <= 1e-8

    def test_determinism(self, workdir, rng, capsys):
        xi = random_correlation(rng, 3).matrix
        p = write_matrix(workdir / "xi.json", xi, "correlation")
        main(["--json", "--seed", "7", "decompose", p])
        first = capsys.readouterr().out
        main(["--json", "--seed", "7", "decompose", p])
        second = capsys.readouterr().out
        assert first == second

    def test_round_trip_file(self, workdir, rng):
        xi = random_correlation(rng, 3).matrix
        p = write_matrix(workdir / "xi.json", xi, "correlation")
        assert main(["--out", "dec", "decompose", p]) == 0
        obj = serialize.load_json("dec_decomposition.json")
        back = serialize.decomposition_from_dict(obj)
        assert serialize.decomposition_to_dict(back) == obj


    def test_certified_extreme_input_exits_3(self, workdir, rng, capsys):
        v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        p = write_matrix(workdir / "xi.json", v.conj() @ v.T, "correlation")
        assert main(["decompose", p]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "extreme with rank 2" in err
        assert "Traceback" not in err


class TestCorrect:
    def test_eraser_recovers_plus(self, workdir, capsys):
        xp = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        rp = write_matrix(workdir / "rho.json", np.full((2, 2), 0.5), "state")
        assert main(["--json", "correct", xp, rp]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["recovery_residual"] <= 1e-10
        assert [o["probability"] for o in obj["outcomes"]] == pytest.approx([0.5, 0.5])

    def test_random_qutrit(self, workdir, rng, capsys):
        xi = random_correlation(rng, 3).matrix
        rho = random_density(rng, 3).matrix
        xp = write_matrix(workdir / "xi.json", xi, "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        assert main(["--json", "correct", xp, rp]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["recovery_residual"] <= 1e-8

    def test_mismatched_dec_file_exits_3(self, workdir, rng):
        xi = random_correlation(rng, 3).matrix
        rho = random_density(rng, 3).matrix
        xp = write_matrix(workdir / "xi.json", xi, "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        serialize.save_json(
            "bad_dec.json", serialize.decomposition_to_dict(decompose_identity_xi(3))
        )
        assert main(["correct", xp, rp, "--dec", "bad_dec.json"]) == 3


class TestEraser:
    def test_d2_visibility_triple(self, workdir):
        assert main(["--out", "er", "eraser", "--d", "2"]) == 0
        ledger = serialize.load_json("er_ledger.json")
        assert ledger["visibility_input"] == pytest.approx(1.0, abs=1e-9)
        assert ledger["visibility_decohered"] == pytest.approx(0.0, abs=1e-9)
        assert ledger["visibility_corrected"] == pytest.approx(1.0, abs=1e-9)
        assert ledger["outcome_entropy_bits"] == pytest.approx(1.0, abs=1e-10)
        for name in ("er_input.csv", "er_decohered.csv", "er_corrected.csv"):
            assert len(Path(name).read_text().splitlines()) == 361

    def test_ledger_log_d(self, workdir):
        assert main(["--out", "er", "eraser", "--d", "5"]) == 0
        ledger = serialize.load_json("er_ledger.json")
        assert ledger["info_stored_bits"] == pytest.approx(np.log2(5))
        assert ledger["outcome_entropy_bits"] == pytest.approx(np.log2(5), abs=1e-10)

    def test_d1_rejected(self, workdir):
        assert main(["eraser", "--d", "1"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--d", str(10**20)], ["--d", "2", "--samples", str(10**20)]]
    )
    def test_size_numpy_refuses_exits_2_without_output(self, workdir, capsys, flags):
        # 10**20 is past numpy's index range: refused before anything is allocated
        assert main(["eraser"] + flags) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "too large" in lines[0], lines
        assert list(workdir.iterdir()) == []


class TestBounds:
    def test_identity_with_clock_dec(self, workdir, capsys):
        xp = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        serialize.save_json(
            "dec.json", serialize.decomposition_to_dict(decompose_identity_xi(3))
        )
        assert main(["--json", "bounds", xp, "dec.json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["s_xi_over_d_bits"] == pytest.approx(np.log2(3), abs=1e-10)
        assert obj["h_p_bits"] == pytest.approx(np.log2(3), abs=1e-10)
        assert obj["lower_bound_satisfied"] and obj["upper_bound_satisfied"]

    def test_all_ones(self, workdir, capsys):
        xp = write_matrix(workdir / "xi.json", np.ones((3, 3)), "correlation")
        assert main(["--json", "bounds", xp]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["s_xi_over_d_bits"] == pytest.approx(0.0, abs=1e-10)
        assert obj["rank"] == 1


class TestBadInput:
    NAN_XI = [[1.0, float("nan")], [0.0, 1.0]]
    NAN_RHO = [[0.5, 0.0], [0.0, float("nan")]]

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("validate", "xi"),
            ("evolve", "xi"),
            ("evolve", "rho"),
            ("correct", "xi"),
            ("correct", "rho"),
            ("bounds", "xi"),
        ],
    )
    def test_nan_file_exits_2_without_output(self, workdir, capsys, command, bad):
        xi = self.NAN_XI if bad == "xi" else np.eye(2)
        rho = self.NAN_RHO if bad == "rho" else np.eye(2) / 2
        xp = write_matrix(workdir / "xi.json", xi, "correlation")
        rp = write_matrix(workdir / "rho.json", rho, "state")
        files = {"validate": [xp], "evolve": [xp, rp, "2"], "correct": [xp, rp], "bounds": [xp]}
        assert main(["--out", "run", command] + files[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert sorted(p.name for p in workdir.iterdir()) == ["rho.json", "xi.json"]

    @pytest.mark.parametrize(
        "argv, wrong",
        [
            (["validate", "xi.json"], "xi"),
            (["evolve", "xi.json", "rho.json", "2"], "xi"),
            (["evolve", "xi.json", "rho.json", "2"], "rho"),
            (["decompose", "xi.json"], "xi"),
            (["correct", "xi.json", "rho.json"], "xi"),
            (["correct", "xi.json", "rho.json"], "rho"),
            (["bounds", "xi.json"], "xi"),
            (["eraser", "--d", "2", "--state", "rho.json"], "rho"),
        ],
    )
    def test_other_kind_exits_4_without_output(self, workdir, capsys, argv, wrong):
        # each matrix is valid in the role it is read for; only the file's kind is wrong
        kinds = {"xi": "correlation", "rho": "state"}
        kinds[wrong] = {"xi": "state", "rho": "correlation"}[wrong]
        write_matrix(workdir / "xi.json", np.eye(2), kinds["xi"])
        write_matrix(workdir / "rho.json", np.eye(2) / 2, kinds["rho"])
        assert main(["--out", "run"] + argv) == 4
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert not out and len(lines) == 1 and lines[0].startswith("error:"), lines
        assert sorted(p.name for p in workdir.iterdir()) == ["rho.json", "xi.json"]

    @pytest.mark.parametrize(
        "field, dim",
        [("xi", "3.5"), ("xi", 1e400), ("xi", 2.7), ("dec", float("inf")), ("dec", 2.7)],
    )
    def test_bad_dim_exits_4(self, workdir, capsys, field, dim):
        xi = serialize.matrix_to_dict(np.eye(2), "correlation")
        dec = serialize.decomposition_to_dict(decompose_identity_xi(2))
        {"xi": xi, "dec": dec}[field]["dim"] = dim
        serialize.save_json("xi.json", xi)
        serialize.save_json("dec.json", dec)
        rp = write_matrix(workdir / "rho.json", np.eye(2) / 2, "state")
        assert main(["correct", "xi.json", rp, "--dec", "dec.json"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_overflowing_entry_prints_only_the_error_line(self, workdir):
        serialize.save_json("xi.json", {"kind": "correlation", "dim": 1, "entries": [[0, 1e308]]})
        proc = subprocess.run(
            [sys.executable, "-m", "schurmaps.cli", "validate", "xi.json"],
            env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr

    def test_off_flat_decomposition_exits_3(self, workdir, monkeypatch, capsys):
        # |u| = 1 + 2e-9 passes the residual check but would give a recovered trace 1 + 4e-9
        clock = decompose_identity_xi(3)
        off_flat = FlatDecomposition(3, clock.weights, clock.phase_vectors * (1 + 2e-9))
        monkeypatch.setattr(cli, "decompose", lambda xi, seed: off_flat)
        xp = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        rp = write_matrix(workdir / "rho.json", np.eye(3) / 3, "state")
        assert main(["decompose", xp]) == 3
        assert main(["correct", xp, rp]) == 3
        assert "decomposition rejected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "profile", [{"tr": float("nan")}, {"psd": -1.0}, {"herm": True}, {"herm": "1e-9"}]
    )
    def test_bad_tolerance_profile_exits_2(self, workdir, profile):
        serialize.save_json("tol.json", profile)
        xp = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        assert main(["--tol", "tol.json", "validate", xp]) == 2

    def test_unknown_tolerance_field_exits_4(self, workdir, capsys):
        # "eig" is no longer a tolerance: the profile is rejected, not ignored
        serialize.save_json("tol.json", {"eig": 1e-10})
        xp = write_matrix(workdir / "xi.json", np.eye(2), "correlation")
        assert main(["--tol", "tol.json", "validate", xp]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    def test_dec_weights_off_by_3e_9_exits_3(self, workdir):
        dec = decompose_identity_xi(3)
        obj = serialize.decomposition_to_dict(dec)
        obj["weights"] = [w * (1 + 3e-9) for w in obj["weights"]]
        serialize.save_json("dec.json", obj)
        xp = write_matrix(workdir / "xi.json", np.eye(3), "correlation")
        rp = write_matrix(workdir / "rho.json", np.eye(3) / 3, "state")
        assert main(["correct", xp, rp, "--dec", "dec.json"]) == 3


class TestProfileAppliedOnce:
    def test_loose_herm_xi_accepted_by_every_subcommand(self, workdir, rng):
        # a 3e-9 anti-Hermitian part: rejected by the default herm = 1e-9, accepted under
        # 1e-8 by validation, and then trusted by every step after it
        xi = random_correlation(rng, 3).matrix.copy()
        xi[0, 1] += 3e-9j
        xp = write_matrix(workdir / "xi.json", xi, "correlation")
        rp = write_matrix(workdir / "rho.json", random_density(rng, 3).matrix, "state")
        serialize.save_json("tol.json", {"herm": 1e-8})
        commands = [
            ["validate", xp],
            ["decompose", xp],
            ["correct", xp, rp],
            ["bounds", xp],
            ["evolve", xp, rp, "3"],
        ]
        for argv in commands:
            assert main(argv) == 2, argv
            assert main(["--tol", "tol.json", "--out", "run"] + argv) == 0, argv
