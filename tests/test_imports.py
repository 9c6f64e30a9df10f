"""What the package loads: numpy alone, never scipy, and of its own modules only
what a subcommand runs.

One fresh interpreter imports the package, runs every subcommand on d = 3
files (a qutrit is decomposed by the exact face descent, with no search),
then ``decompose`` on a d = 4 file that only the flat search decomposes,
and reports which scipy modules were loaded at each point. Then one fresh
interpreter per subcommand reports which ``schurmaps`` modules it loaded.
"""

import importlib
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

import schurmaps
from schurmaps import decompose_identity_xi, errors, serialize
from conftest import src_env

SCRIPT = r"""
import contextlib, io, json, os, sys

import numpy as np

import schurmaps, schurmaps.cli
from schurmaps import FlatDecomposition, reconstruct_xi, serialize


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return schurmaps.cli.main(list(argv))


report = {"after_import": scipy_modules()}
os.chdir(sys.argv[1])
phases = np.array([[0.0, 0.4, 1.9], [0.0, 2.5, -1.2], [0.0, -0.7, 0.3]])
dec = FlatDecomposition(3, np.array([0.5, 0.3, 0.2]), np.exp(1j * phases))
serialize.save_json("xi.json", serialize.matrix_to_dict(reconstruct_xi(dec), "correlation"))
serialize.save_json("rho.json", serialize.matrix_to_dict(np.full((3, 3), 1 / 3), "state"))
serialize.save_json("dec.json", serialize.decomposition_to_dict(dec))
report["codes"] = [
    run("validate", "xi.json"),
    run("evolve", "xi.json", "rho.json", "3"),
    run("correct", "xi.json", "rho.json", "--dec", "dec.json"),
    run("bounds", "xi.json", "dec.json"),
    run("eraser", "--d", "4"),
    run("decompose", "xi.json"),
    run("correct", "xi.json", "rho.json"),
]
report["after_commands"] = scipy_modules()
# neither the identity nor Toeplitz: no closed form applies at d = 4
phases4 = np.array([
    [0.0, 0.4, 1.9, -2.2], [0.0, 2.5, -1.2, 0.8], [0.0, -0.7, 0.3, 2.9],
    [0.0, 1.3, -2.6, 0.1], [0.0, -1.9, 2.2, -0.5],
])
dec4 = FlatDecomposition(4, np.array([0.3, 0.25, 0.2, 0.15, 0.1]), np.exp(1j * phases4))
serialize.save_json("xi4.json", serialize.matrix_to_dict(reconstruct_xi(dec4), "correlation"))
report["decompose_code"] = run("decompose", "xi4.json")
report["after_search"] = scipy_modules()
print(json.dumps(report))
"""


def test_nothing_loads_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["codes"] == [0] * 7
    assert report["after_commands"] == []
    assert report["decompose_code"] == 0
    assert report["after_search"] == []


SUBMODULES = ("channels", "correction", "decomposition", "dilation", "infometrics", "numerics")


def test_all_is_every_submodule_export_and_every_error():
    public_errors = {n for n, v in vars(errors).items()
                     if inspect.isclass(v) and not n.startswith("_")}
    exported = set().union(
        *(importlib.import_module(f"schurmaps.{m}").__all__ for m in SUBMODULES), public_errors)
    assert len(schurmaps.__all__) == len(set(schurmaps.__all__))
    assert set(schurmaps.__all__) == exported
    for name in schurmaps.__all__:
        assert getattr(schurmaps, name) is not None
    assert set(schurmaps.__all__) <= set(dir(schurmaps))
    with pytest.raises(AttributeError):
        schurmaps.no_such_name


# each run's arguments, and the schurmaps modules it loads beyond the package itself
COMMON = ("channels", "cli", "errors", "numerics", "serialize")
RUNS = {
    "import": ([], ()),
    "evolve": (["--out", "ev", "evolve", "xi.json", "rho.json", "5"], COMMON),
    "validate": (["validate", "xi.json"], COMMON + ("decomposition", "dilation")),
    "decompose": (["decompose", "xi.json"], COMMON + ("decomposition", "dilation")),
    "bounds": (["bounds", "xi.json", "dec.json"],
               COMMON + ("decomposition", "dilation", "infometrics")),
    "correct": (["correct", "xi.json", "rho.json", "--dec", "dec.json"],
                COMMON + ("correction", "decomposition", "dilation")),
    "eraser": (["--out", "er", "eraser", "--d", "3"],
               COMMON + ("correction", "decomposition", "dilation", "infometrics")),
}

LOADED = r"""
import contextlib, io, json, sys

import schurmaps

numpy = "numpy" in sys.modules
code = 0
if sys.argv[1:]:
    from schurmaps.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([numpy, code, sorted(m for m in sys.modules if m.startswith("schurmaps."))]))
"""


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("loads")
    serialize.save_json(path / "xi.json", serialize.matrix_to_dict(np.eye(3), "correlation"))
    serialize.save_json(path / "rho.json", serialize.matrix_to_dict(np.eye(3) / 3, "state"))
    serialize.save_json(path / "dec.json",
                        serialize.decomposition_to_dict(decompose_identity_xi(3)))
    return path


@pytest.mark.parametrize("run", list(RUNS))
def test_each_subcommand_loads_only_what_it_runs(cli_files, run):
    argv, modules = RUNS[run]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        env=src_env(), cwd=cli_files, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    numpy, code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not numpy  # the package itself loads no numpy
    assert code == 0
    assert loaded == sorted(f"schurmaps.{m}" for m in modules)
