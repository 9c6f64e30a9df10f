"""The benchmark's contract with the library: every job of ``perfbench/workloads.py``
still runs and passes its own check, at tiny sizes, and the full-size eraser
scenario checks, which are the only callers of ``Dilation.unitary`` and
``EnvPovm.check_complete`` outside the tests. Nothing is written to disk."""

import importlib.util

import pytest

from conftest import ROOT


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
NO_TRACE = _load("tracing").NoTrace()


def run_checked(jobs):
    for job in jobs:
        assert job.check(job.run(NO_TRACE), NO_TRACE), (job.kind, job.d)


@pytest.mark.parametrize("workload", ["EraserSweep", "SearchMixed", "SmallStream"])
def test_tiny_round_passes_its_checks(workload):
    run_checked(getattr(workloads, workload)(seed=1, tiny=True).round())


def test_full_size_eraser_scenarios_pass_their_checks():
    jobs = [job for job in workloads.EraserSweep(seed=1).round() if job.kind == "scenario"]
    assert sorted(job.d for job in jobs) == [12, 16, 24, 32]
    run_checked(jobs)
